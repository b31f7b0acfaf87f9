"""Live-churn bench: the plan as columns vs. event splicing vs. rebuilds.

Times the same churn-heavy scenario three ways — ``run_churned`` (the
plan lowered to lifetimes, one lane of the block kernel), the event
engine splicing every event into its live queues / candidate index
(``FastProxySimulator.run(churn=plan)``: O(log n + touched) per event),
and that engine with a from-scratch
:meth:`~repro.simulation.engine.FastProxySimulator.rebuild_structures`
pass after every churn event — and asserts the three produce
probe-for-probe identical results every round. Nothing under
``src/repro`` reaches the event engine any more: the ``event`` and
``rebuild`` rows build it here, directly, and leave (with the gated
``speedup`` and ``columns_vs_event`` keys) when
``simulation/engine.py`` does. The kernel pays
some fifty NumPy calls per chronon whatever the instance, so the columns
lose at ``tiny``, draw at ``target`` and win from there
(``columns_vs_event``); ``contract`` is the end-to-end benchmark's
``live-churn`` workload. A plan keeps the lowering of the last run it
served, so ``columns_s`` is timed *cold* — a new plan every round, which
is what the row has always meant (plan to finished run) — and
``columns_warm_s`` is the next policy's run on that same plan — another
score row (:data:`WARM_POLICY`), which builds no lowering before its
first chronon but does build the windows of its own row. Results land
in ``BENCH_churn.json``::

    PYTHONPATH=src python benchmarks/bench_churn.py \
        --output BENCH_churn.json

The ``target`` scale is the acceptance scale: a churn-heavy epoch
(hundreds of registrations and cancellations over hundreds of live
profiles) where the gated event-vs-rebuild ``speedup`` key must stay
>= 3x. ``--smoke``
restricts to the tiny scale for CI; the bench-report gate compares
every regenerated scale against the committed baseline.

The two qualitative pytest benches (arrival spread vs. completeness,
leavers vs. drops) ride along at the bottom and are collected only
when pytest targets ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict

from repro.core.budget import BudgetVector
from repro.experiments.churn import (
    ChurnConfig,
    build_churn_workload,
    run_churn,
)
from repro.online.registry import parse_policy_spec
from repro.simulation.churn import ChurnPlan, run_churned
from repro.simulation.engine import FastProxySimulator

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["ENGINE_SCALES", "WARM_POLICY", "measure_engine_churn", "main"]

#: The policy ``columns_warm_s`` times on the plan the scale's policy
#: (MRSF) lowered: a different score row, as a lineup's next policy is.
WARM_POLICY = "S-EDF(P)"

#: Engine scales. ``target`` is churn-heavy — every client joins
#: mid-epoch and half churn out again, so the per-event O(n) rebuild
#: referee pays hundreds of full event-queue/index reconstructions
#: over hundreds of live profiles. ``tiny`` is the CI smoke scale;
#: ``contract`` is ``benchmarks/e2e``'s ``live-churn`` workload at its
#: contract scale and default seed.
ENGINE_SCALES: dict[str, ChurnConfig] = {
    "tiny": ChurnConfig(epoch_length=80, num_resources=16,
                        intensity=8.0, num_clients=6,
                        profiles_per_client=4, window=6,
                        join_spread=0.9, leave_probability=0.5,
                        seed=1234),
    "target": ChurnConfig(epoch_length=300, num_resources=100,
                          intensity=10.0, num_clients=48,
                          profiles_per_client=12, window=10,
                          budget=2, join_spread=0.9,
                          leave_probability=0.5, seed=20080407),
    "contract": ChurnConfig(epoch_length=300, num_resources=120,
                            intensity=6.0, num_clients=300,
                            profiles_per_client=12, window=20,
                            budget=2, join_spread=0.9,
                            leave_probability=0.5, seed=20080407),
}

def _identical(left, right) -> bool:
    return (list(left.schedule.probes()) == list(right.schedule.probes())
            and left.report.per_profile == right.report.per_profile
            and left.report.per_rank == right.report.per_rank
            and left.expired == right.expired
            and left.extras == right.extras)


def measure_engine_churn(scale: str, rounds: int = 3) -> dict:
    """Median wall time of one churned run: columns, event splicing,
    per-event rebuild — one workload, identical results."""
    config = ENGINE_SCALES[scale]
    initial, plan, epoch = build_churn_workload(config)
    budget = BudgetVector(config.budget)
    # The event engine reads objects; a column-born workload builds them
    # on first read — here, not inside the first timed event run.
    _objects = initial.profiles, plan.events

    def timed(run, label=config.policy) -> tuple[float, object]:
        policy, preemptive = parse_policy_spec(label)
        started = time.perf_counter()
        result = run(policy, preemptive)
        return time.perf_counter() - started, result

    def churned(plan=plan):
        return lambda policy, preemptive: run_churned(
            initial, epoch, budget, policy, plan=plan,
            preemptive=preemptive)

    def event_engine(rebuild: bool):
        # Leaves with simulation/engine.py.
        return lambda policy, preemptive: FastProxySimulator(
            initial, epoch, budget, policy,
            preemptive=preemptive).run(churn=plan, churn_rebuild=rebuild)

    paths = {"event": event_engine(False), "rebuild": event_engine(True)}
    # Warm-ups, outside timing: what every timed run must reproduce.
    _, reference = timed(churned())
    _, warm_reference = timed(churned(), WARM_POLICY)
    times: dict[str, list[float]] = {
        name: [] for name in ("columns", "columns_warm", *paths)}
    for _ in range(rounds):
        cold = ChurnPlan.from_columns(plan.columns())
        for name, run in (("columns", churned(cold)),
                          ("columns_warm", churned(cold)),
                          *paths.items()):
            warm = name == "columns_warm"
            if name == "columns" and cold._lowering is not None:
                raise AssertionError(
                    "columns_s must be timed cold, but the plan already "
                    "holds a lowering")
            if warm and cold._lowering is None:
                raise AssertionError(
                    "columns_warm_s must be timed on a kept lowering, "
                    "but the plan holds none")
            seconds, result = timed(
                run, WARM_POLICY if warm else config.policy)
            times[name].append(seconds)
            if not _identical(result,
                              warm_reference if warm else reference):
                raise AssertionError(
                    f"the {name} run diverged from the columns' "
                    "warm-up run")
    columns_s, columns_warm_s, event_s, rebuild_s = (
        statistics.median(times[name]) for name in times)
    return {
        "config": asdict(config),
        "events": len(plan),
        "initial_profiles": len(initial),
        "total_tintervals": reference.report.total,
        "gc": reference.report.gc,
        "probes_used": reference.probes_used,
        "dropped": reference.extras.get("dropped", 0.0),
        "columns_s": columns_s,
        "columns_warm_s": columns_warm_s,
        "event_s": event_s,
        "rebuild_s": rebuild_s,
        # Gated as before: event splicing against its rebuild referee.
        "speedup": rebuild_s / event_s,
        "columns_vs_event": {"speedup": event_s / columns_s},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark churned runs as columns, by event "
                    "splicing and by per-event rebuilds, writing "
                    "BENCH_churn.json")
    parser.add_argument("--scales", default="tiny,target,contract",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(ENGINE_SCALES)})")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per measurement (median wins)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: tiny scale only, 5 rounds")
    parser.add_argument("--output", default="BENCH_churn.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.smoke:
        scales = ["tiny"]
        rounds = 5
    else:
        scales = [scale.strip() for scale in args.scales.split(",")
                  if scale.strip()]
        rounds = args.rounds
    report = {
        **provenance_header("bench_churn.py"),
        "rounds": rounds,
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_churn] measuring scale {scale!r} ...",
              file=sys.stderr)
        engine = measure_engine_churn(scale, rounds=rounds)
        report["scales"][scale] = {"engine": engine}
        print(f"[bench_churn]   engine: columns "
              f"{engine['columns_s'] * 1e3:.1f}ms cold / "
              f"{engine['columns_warm_s'] * 1e3:.1f}ms on a kept "
              f"lowering, event splicing "
              f"{engine['event_s'] * 1e3:.1f}ms "
              f"({engine['columns_vs_event']['speedup']:.2f}x), rebuild "
              f"{engine['rebuild_s'] * 1e3:.1f}ms "
              f"({engine['speedup']:.2f}x over event), "
              f"{engine['events']} events", file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[bench_churn] wrote {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Qualitative pytest benches (collected when pytest targets benchmarks/).
# ---------------------------------------------------------------------------


def bench_churn_arrival_spread(benchmark, capsys):
    from benchmarks.conftest import print_block
    from repro.experiments.reporting import render_table

    spreads = [0.0, 0.2, 0.4, 0.6, 0.8]

    def run_sweep():
        rows = []
        for spread in spreads:
            result = run_churn(ChurnConfig(join_spread=spread))
            rows.append([spread, result.overall_completeness,
                         result.fairness, result.completed,
                         result.expired])
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["join spread", "completeness", "fairness (Jain)", "completed",
         "expired"], rows,
        title="Churn — arrival spread vs delivered completeness"))

    completeness = [row[1] for row in rows]
    # Later arrival spread strictly costs completeness overall.
    assert completeness[0] > completeness[-1]
    # Fairness degrades as later joiners do worse.
    assert rows[0][2] >= rows[-1][2] - 0.02


def bench_churn_leavers(benchmark, capsys):
    from benchmarks.conftest import print_block
    from repro.experiments.reporting import render_table

    def run_pair():
        stay = run_churn(ChurnConfig(join_spread=0.4))
        churn = run_churn(ChurnConfig(join_spread=0.4,
                                      leave_probability=0.5))
        return stay, churn

    stay, churn = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["scenario", "completeness", "completed", "expired", "dropped"],
        [["no leavers", stay.overall_completeness, stay.completed,
          stay.expired, stay.dropped],
         ["50% leave at 3/4", churn.overall_completeness,
          churn.completed, churn.expired, churn.dropped]],
        title="Churn — leavers"))
    assert churn.dropped > 0
    assert stay.dropped == 0


if __name__ == "__main__":
    sys.exit(main())
