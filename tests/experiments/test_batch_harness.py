"""Batch-engine harness path: per-instance blocks, fall-backs and worker
invariance.

The harness runs the sweep cells sharing a generation key as the lanes
of one columnar block — one block per generated instance, by default,
for every GC sweep; this file pins down that the blocked path (serial
and on a process pool of any size) reproduces exactly the fast engine's
numbers, that a repetition is a block of its own (and a worker chunk of
its own), that unsupported policies fall back per (cell, policy), that
only the runtime-reporting experiments still time each policy in a run
of its own, and that
:func:`~repro.experiments.instances.generation_key` captures precisely
the generative config fields.
"""

from concurrent.futures import Future

import pytest

from repro.core import ProfileSet
from repro.experiments import ExperimentConfig, figure5, harness, table1
from repro.experiments.faults import (
    FAULT_POLICY_VARIANTS,
    _default_breaker,
    fault_sweep,
)
from repro.experiments.harness import (
    DEFAULT_ENGINE,
    DEFAULT_POLICIES,
    make_instance,
    run_setting,
    sweep,
)
from repro.simulation import run_online
from repro.simulation.engine import FastProxySimulator
from repro.experiments.instances import (
    InstanceCache,
    generation_key,
    instance_key,
)

_CONFIG = ExperimentConfig(
    epoch_length=20, num_resources=6, num_profiles=8, intensity=4.0,
    window=4, repetitions=3, grouping="overlap", seed=99)

#: RANDOM has no columnar kind — including it exercises the per-policy
#: fall-back inside an otherwise-blocked cell.
_POLICIES = ("S-EDF(P)", "MRSF(P)", "RANDOM(NP)")


def _gc_map(outcome):
    return {label: po.gc_values for label, po in outcome.outcomes.items()}


class TestBatchHarness:
    def test_run_setting_batch_matches_fast(self):
        fast = run_setting(_CONFIG, _POLICIES, engine="fast")
        batch = run_setting(_CONFIG, _POLICIES, engine="batch")
        assert _gc_map(batch) == _gc_map(fast)

    def test_sweep_batch_matches_fast(self):
        fast = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                     engine="fast")
        batch = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                      engine="batch")
        assert batch.x_values == fast.x_values
        for fast_run, batch_run in zip(fast.runs, batch.runs):
            assert _gc_map(batch_run) == _gc_map(fast_run)

    def test_sweep_batch_includes_offline(self):
        fast = sweep("s", _CONFIG, "budget", [1], _POLICIES,
                     include_offline=True, engine="fast")
        batch = sweep("s", _CONFIG, "budget", [1], _POLICIES,
                      include_offline=True, engine="batch")
        for fast_run, batch_run in zip(fast.runs, batch.runs):
            assert _gc_map(batch_run) == _gc_map(fast_run)

    def test_sweep_batch_worker_count_invariant(self):
        """Chunking groups cells by generated instance; any worker count
        must reproduce the serial blocked results bit for bit."""
        serial = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                       engine="batch")
        for workers in (2, 3):
            pooled = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                           engine="batch", workers=workers)
            assert pooled.x_values == serial.x_values
            for serial_run, pooled_run in zip(serial.runs, pooled.runs):
                assert _gc_map(pooled_run) == _gc_map(serial_run)

    def test_sweep_non_budget_axis_blocks_per_value(self):
        """Sweeping a generative field gives each value its own block —
        still identical to the fast engine."""
        fast = sweep("s", _CONFIG, "window", [3, 4], _POLICIES,
                     engine="fast")
        batch = sweep("s", _CONFIG, "window", [3, 4], _POLICIES,
                      engine="batch")
        for fast_run, batch_run in zip(fast.runs, batch.runs):
            assert _gc_map(batch_run) == _gc_map(fast_run)


@pytest.fixture
def fast_runs(monkeypatch):
    """Counts the per-run engine objects constructed in this process."""
    built = []
    original = FastProxySimulator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FastProxySimulator, "__init__", counting)
    return built


class TestDefaultEngine:
    """No ``engine=`` argument means the columnar block kernel."""

    def _sweep(self, policies=DEFAULT_POLICIES, **kwargs):
        return sweep("s", _CONFIG, "budget", [1, 2, 3], policies, **kwargs)

    def _assert_same_gc(self, result, **kwargs):
        for engine in ("fast", "reference"):
            other = self._sweep(engine=engine, **kwargs)
            for run, other_run in zip(result.runs, other.runs):
                assert _gc_map(run) == _gc_map(other_run)

    def test_sweep_is_served_by_blocks_alone(self, fast_runs):
        result = self._sweep()
        assert fast_runs == []
        assert result.engine == DEFAULT_ENGINE == "batch"
        assert all(run.shared_block for run in result.runs)
        assert result.fell_back == 0
        self._assert_same_gc(result)

    def test_run_setting_default_is_blocked_too(self, fast_runs):
        outcome = run_setting(_CONFIG)
        assert fast_runs == []
        assert (outcome.engine, outcome.fell_back) == ("batch", 0)

    def test_offline_rides_along(self, fast_runs):
        result = self._sweep(include_offline=True)
        assert fast_runs == []
        assert result.fell_back == 0
        self._assert_same_gc(result, include_offline=True)

    def test_worker_pool(self):
        result = self._sweep(workers=2)
        assert (result.engine, result.fell_back) == ("batch", 0)
        self._assert_same_gc(result, workers=2)

    def test_random_falls_back_per_run(self, fast_runs):
        policies = DEFAULT_POLICIES + ("RANDOM(P)",)
        result = self._sweep(policies)
        random_runs = 3 * _CONFIG.repetitions
        assert len(fast_runs) == result.fell_back == random_runs
        fast = self._sweep(policies, engine="fast")
        assert fast.engine == "fast" and fast.fell_back == 0
        for run, fast_run in zip(result.runs, fast.runs):
            assert _gc_map(run) == _gc_map(fast_run)

    def test_runtime_reports_time_each_policy_alone(self, fast_runs):
        outcome = table1("smoke")
        assert outcome.engine == "fast" and not outcome.shared_block
        assert len(fast_runs) == (len(outcome.outcomes)
                                  * outcome.config.repetitions)
        assert len({policy.runtime_values
                    for policy in outcome.outcomes.values()}) > 1
        del fast_runs[:]
        pair = figure5("smoke")
        for panel in (pair.left, pair.right):
            assert panel.engine == "fast"
            runtimes = {panel.runs[0].mean_runtime(label)
                        for label in DEFAULT_POLICIES}
            assert len(runtimes) == len(DEFAULT_POLICIES)
        assert fast_runs

    def test_block_shares_are_even_not_per_policy(self):
        outcome = run_setting(_CONFIG.with_(repetitions=1))
        shares = {policy.runtime_values
                  for policy in outcome.outcomes.values()}
        assert len(shares) == 1


@pytest.fixture
def block_calls(monkeypatch):
    """Every ``(profiles, lanes, results)`` of the harness's run_block."""
    calls = []
    original = harness.run_block

    def spy(profiles, epoch, lanes, **kwargs):
        results = original(profiles, epoch, lanes, **kwargs)
        calls.append((profiles, list(lanes), results))
        return results

    monkeypatch.setattr(harness, "run_block", spy)
    return calls


class TestOneBlockPerInstance:
    """A repetition is a block; budgets, policies and rates are lanes."""

    def _assert_one_block_per_repetition(self, calls, config, lanes):
        assert len(calls) == config.repetitions
        for repetition, (profiles, lane_specs, _results) in \
                enumerate(calls):
            assert isinstance(profiles, ProfileSet)
            assert profiles is make_instance(config, repetition)[1]
            assert len(lane_specs) == lanes
            assert {spec[3] for spec in lane_specs} == {0}

    def test_budget_sweep(self, block_calls):
        budgets = [1, 2, 3, 4, 5]
        result = sweep("s", _CONFIG, "budget", budgets)
        self._assert_one_block_per_repetition(
            block_calls, _CONFIG, len(DEFAULT_POLICIES) * len(budgets))
        assert result.blocks == _CONFIG.repetitions == 3
        # Every setting rode the same three passes.
        assert [run.blocks for run in result.runs] == [3] * len(budgets)
        fast = sweep("s", _CONFIG, "budget", budgets, engine="fast")
        assert (fast.blocks, fast.fell_back) == (0, result.fell_back)
        for run, fast_run in zip(result.runs, fast.runs):
            assert _gc_map(run) == _gc_map(fast_run)

    def test_fault_sweep(self, block_calls):
        config = _CONFIG.with_(budget=2)
        rates = (0.0, 0.2, 0.4)
        result = fault_sweep(config=config, rates=rates)
        self._assert_one_block_per_repetition(
            block_calls, config, len(FAULT_POLICY_VARIANTS) * len(rates))
        assert result.blocks == 3
        fast = fault_sweep(config=config, rates=rates, engine="fast")
        assert (fast.blocks, fast.fell_back) == (0, result.fell_back)
        for run, fast_run in zip(result.runs, fast.runs):
            assert _gc_map(run) == _gc_map(fast_run)
        # Fault statistics lane by lane, against a fast run of its own.
        failed = 0
        for profiles, lane_specs, results in block_calls:
            for (policy, preemptive, budget, _inst, fault), lane in \
                    zip(lane_specs, results):
                alone = run_online(
                    profiles, config.epoch, budget, policy,
                    preemptive=preemptive, faults=fault.faults,
                    retry=fault.retry, breaker=_default_breaker(),
                    engine="fast")
                assert (lane.gc, lane.probes_failed, lane.retries,
                        lane.resources_quarantined) == (
                    alone.gc, alone.probes_failed, alone.retries,
                    alone.resources_quarantined)
                failed += lane.probes_failed
        assert failed > 0

    def test_a_later_sweep_reuses_the_lowering(self, monkeypatch):
        built = []
        original = harness.ColumnarInstance.build

        def counting(profiles, epoch):
            built.append(profiles)
            return original(profiles, epoch)

        monkeypatch.setattr(harness.ColumnarInstance, "build", counting)
        harness._COLUMNAR_CACHE.clear()
        sweep("s", _CONFIG, "budget", [1, 2])
        assert len(built) == _CONFIG.repetitions
        fault_sweep(config=_CONFIG.with_(budget=2), rates=(0.1,))
        assert len(built) == _CONFIG.repetitions

    def test_worker_chunks_split_by_repetition(self, monkeypatch):
        """A one-parameter budget sweep is ``repetitions`` groups, so a
        pool has more than one chunk to hand out."""
        chunks = []

        class InlinePool:
            def __init__(self, **_kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *_exc):
                return False

            def submit(self, fn, cell_args):
                chunks.append(cell_args)
                future = Future()
                future.set_result(fn(cell_args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        pooled = sweep("s", _CONFIG, "budget", [1, 2, 3, 4, 5], workers=4)
        assert len(chunks) == _CONFIG.repetitions
        for chunk in chunks:
            assert len({args[1] for args in chunk}) == 1
            assert sorted(args[0].budget for args in chunk) == \
                [1, 2, 3, 4, 5]
        serial = sweep("s", _CONFIG, "budget", [1, 2, 3, 4, 5])
        assert pooled.blocks == serial.blocks == 3
        for run, serial_run in zip(pooled.runs, serial.runs):
            assert _gc_map(run) == _gc_map(serial_run)


class TestGenerationKey:
    def test_budget_and_repetitions_do_not_perturb(self):
        base = generation_key(_CONFIG, 0, "poisson")
        assert generation_key(_CONFIG.with_(budget=7), 0,
                              "poisson") == base
        assert generation_key(_CONFIG.with_(repetitions=9), 0,
                              "poisson") == base

    def test_generative_fields_perturb(self):
        base = generation_key(_CONFIG, 0, "poisson")
        assert generation_key(_CONFIG.with_(seed=1), 0, "poisson") != base
        assert generation_key(_CONFIG.with_(window=5), 0,
                              "poisson") != base
        assert generation_key(_CONFIG, 1, "poisson") != base

    def test_instance_key_still_covers_budget(self):
        assert instance_key(_CONFIG.with_(budget=7), 0, "poisson") != \
            instance_key(_CONFIG, 0, "poisson")

    def test_memory_cache_shares_across_budgets(self):
        cache = InstanceCache(max_entries=4)
        _trace_a, profiles_a = cache.get_or_generate(_CONFIG, 0)
        _trace_b, profiles_b = cache.get_or_generate(
            _CONFIG.with_(budget=7), 0)
        assert profiles_b is profiles_a
