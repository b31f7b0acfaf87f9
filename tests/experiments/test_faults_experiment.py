"""Tests for the graceful-degradation experiment and its CLI entry."""

from repro.cli import build_parser, main
from repro.experiments import (
    DEFAULT_FAILURE_RATES,
    FAULT_POLICY_VARIANTS,
    breaker_ablation,
    fault_sweep,
    run_fault_setting,
)
from repro.experiments.config import baseline
from repro.faults import RetryConfig
from repro.online import registry

from tests.conformance.cases import LoudMRSF


class TestFaultSweep:
    def test_all_variants_survive_to_rate_half(self):
        result = fault_sweep(scale="smoke", rates=(0.0, 0.5))
        assert result.name == "faults"
        assert result.parameter == "failure_rate"
        assert result.x_values == (0.0, 0.5)
        assert set(result.labels()) == set(FAULT_POLICY_VARIANTS)
        for label in FAULT_POLICY_VARIANTS:
            series = result.series(label)
            assert len(series) == 2
            # GC degrades with the failure rate but never collapses to
            # zero at rate 0.5 (retries recover part of the loss).
            assert series[0] > series[1] > 0.0

    def test_sweep_is_deterministic(self):
        kwargs = dict(scale="smoke", rates=(0.3,),
                      policies=("S-EDF(P)", "MRSF(NP)"))
        one = fault_sweep(**kwargs)
        two = fault_sweep(**kwargs)
        assert one.series("S-EDF(P)") == two.series("S-EDF(P)")
        assert one.series("MRSF(NP)") == two.series("MRSF(NP)")

    def test_policies_share_the_fault_world(self):
        config = baseline("smoke")
        outcome = run_fault_setting(config, 0.0,
                                    policies=("S-EDF(P)",),
                                    retry=None, use_breaker=False)
        clean = run_fault_setting(config, 0.0,
                                  policies=("S-EDF(P)",),
                                  retry=RetryConfig(2), use_breaker=True)
        # At rate zero neither retries nor the breaker may change GC.
        assert outcome.outcomes["S-EDF(P)"].mean_gc == \
            clean.outcomes["S-EDF(P)"].mean_gc


class TestFaultSweepEngines:
    def test_engines_produce_identical_series(self):
        kwargs = dict(scale="smoke", rates=(0.0, 0.3),
                      policies=("S-EDF(P)", "MRSF(NP)", "COVERAGE(NP)"))
        batch = fault_sweep(**kwargs, engine="batch")
        fast = fault_sweep(**kwargs, engine="reference")
        for label in kwargs["policies"]:
            assert batch.series(label) == fast.series(label)
        # Every lane lowered: nothing fell back to the reference.
        assert batch.fell_back == 0
        assert fast.fell_back == 0

    def test_setting_engines_agree(self):
        config = baseline("smoke")
        batch = run_fault_setting(config, 0.25, policies=("M-EDF(P)",),
                                  engine="batch")
        fast = run_fault_setting(config, 0.25, policies=("M-EDF(P)",),
                                 engine="reference")
        assert batch.outcomes["M-EDF(P)"].gc_values == \
            fast.outcomes["M-EDF(P)"].gc_values

    def test_fallback_lanes_are_counted(self, monkeypatch):
        # LOUD-MRSF has no row: under the batch engine each of its
        # (rate, repetition) runs takes the reference path beside the
        # block, surfaced through fell_back; the series is unaffected.
        monkeypatch.setitem(registry._FACTORIES, "LOUD-MRSF", LoudMRSF)
        config = baseline("smoke")
        policies = ("S-EDF(P)", "LOUD-MRSF(NP)")
        result = fault_sweep(scale="smoke", rates=(0.2, 0.4),
                             policies=policies, engine="batch")
        assert result.fell_back == 2 * config.repetitions
        for run in result.runs:
            assert run.fell_back == config.repetitions
        pure = fault_sweep(scale="smoke", rates=(0.2, 0.4),
                           policies=policies, engine="reference")
        for label in policies:
            assert result.series(label) == pure.series(label)


class TestBreakerAblation:
    def test_breaker_at_least_as_good(self):
        gc = breaker_ablation(scale="smoke")
        assert set(gc) == {"with_breaker", "without_breaker"}
        assert gc["with_breaker"] >= gc["without_breaker"]
        assert gc["without_breaker"] > 0.0


class TestFaultsCli:
    def test_parser_accepts_faults(self):
        args = build_parser().parse_args(["faults", "--scale", "smoke"])
        assert args.experiment == "faults"

    def test_engine_flag_defaults_to_experiment_choice(self):
        args = build_parser().parse_args(["faults"])
        assert args.engine is None

    def test_engine_flag_is_honoured(self, capsys):
        # Both engines run the sweep and emit the same (deterministic)
        # GC table under a header naming the engine that served it — the
        # flag must reach fault_sweep instead of being silently dropped.
        # The reference times each policy on its own, so a runtime table
        # follows its GC table.
        assert main(["faults", "--scale", "smoke",
                     "--engine", "batch"]) == 0
        batch_head, batch_out = capsys.readouterr().out.split("\n", 1)
        assert main(["faults", "--scale", "smoke",
                     "--engine", "reference"]) == 0
        fast_head, fast_out = capsys.readouterr().out.split("\n", 1)
        assert batch_head == "# engine=batch fell_back=0 blocks=2"
        assert fast_head == "# engine=reference fell_back=0 blocks=0"
        assert "failure_rate" in batch_out
        assert fast_out.startswith(batch_out)
        assert fast_out[len(batch_out):].startswith(
            f"{fast_head}\nfaults — runtime (s)\n")

    def test_faults_smoke_table(self, capsys):
        assert main(["faults", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "failure_rate" in output
        assert "S-EDF(P)" in output
        assert "COVERAGE(NP)" in output

    def test_faults_smoke_csv(self, capsys):
        assert main(["faults", "--scale", "smoke", "--csv"]) == 0
        output = capsys.readouterr().out
        assert "failure_rate,S-EDF(P)" in output


def test_default_rates_reach_one_half():
    assert DEFAULT_FAILURE_RATES[0] == 0.0
    assert DEFAULT_FAILURE_RATES[-1] == 0.5
