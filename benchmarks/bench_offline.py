"""Offline pipeline performance: the Local-Ratio and greedy solvers.

Measures median wall-times of :class:`LocalRatioApproximation.solve`
and :class:`GreedyOfflineSolver.solve`, the enumeration micro-cost, and
the serial vs. process-pool offline comparison experiment, writing
everything to ``BENCH_offline.json`` so future changes are compared
against a tracked baseline::

    PYTHONPATH=src python benchmarks/bench_offline.py \
        --output BENCH_offline.json

The headline ``target`` scale — epoch 200, 50 resources, 60 profiles —
is ``bench_batch.py``'s target scale restricted to the ``P^[1]``
regime the paper evaluates the offline approximation in (``W = 0``,
``C = 1``, §5.3/§5.7); ``target-general`` keeps the online bench's
windowed/overlap shape to exercise the general (augmentation-heavy)
path.

The module doubles as a pytest-benchmark bench
(``bench_offline_speedup``) timing Local-Ratio at the target scale.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import asdict

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import make_instance
from repro.experiments.offline import offline_comparison
from repro.offline.enumeration import EnumerationSolver
from repro.offline.greedy import GreedyOfflineSolver
from repro.offline.local_ratio import LocalRatioApproximation

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["measure_local_ratio", "measure_micro", "measure_offline_scaling",
           "main"]

#: Instance scales measured by the offline bench. ``target`` is the
#: batch-bench scale in the offline (P^[1], C = 1) regime; ``tiny``
#: exists for CI smoke runs.
SCALES: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        epoch_length=40, num_resources=10, num_profiles=12, intensity=5.0,
        window=0, repetitions=1, grouping="indexed", seed=1234),
    "target": ExperimentConfig(
        epoch_length=200, num_resources=50, num_profiles=60, intensity=10.0,
        window=0, repetitions=1, grouping="indexed", seed=1234),
    "target-general": ExperimentConfig(
        epoch_length=200, num_resources=50, num_profiles=60, intensity=10.0,
        window=10, repetitions=1, grouping="overlap", seed=1234),
}

_SWEEP_WORKERS = (2, 4)


def _median_solve(solver, profiles, config: ExperimentConfig,
                  rounds: int) -> tuple[float, object]:
    """Median wall-time of ``rounds`` solves, after one untimed solve
    that pays the first-use costs (the solver's scipy import)."""
    result = solver.solve(profiles, config.epoch, config.budget_vector)
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = solver.solve(profiles, config.epoch, config.budget_vector)
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def measure_local_ratio(scale: str, rounds: int = 5) -> dict:
    """Median Local-Ratio and greedy wall-times at one scale."""
    config = SCALES[scale]
    _trace, profiles = make_instance(config, 0)
    fast_s, result = _median_solve(
        LocalRatioApproximation(), profiles, config, rounds)
    greedy_s, _ = _median_solve(GreedyOfflineSolver(), profiles,
                                config, rounds)
    return {
        "config": asdict(config),
        "candidates": result.extras["candidates"],
        "accepted": result.extras["accepted"],
        "gc": result.gc,
        "fast_s": fast_s,
        "greedy_fast_s": greedy_s,
    }


def measure_micro(rounds: int = 5) -> dict:
    """Micro-costs: the greedy matcher and the enumeration solver."""
    config = SCALES["target-general"]
    _trace, profiles = make_instance(config, 0)
    fast_s, _ = _median_solve(GreedyOfflineSolver(), profiles,
                              config, rounds)

    # Enumeration ground truth on a tiny instance (exponential beyond).
    enum_config = ExperimentConfig(
        epoch_length=12, num_resources=4, num_profiles=6, intensity=3.0,
        window=2, repetitions=1, grouping="overlap", seed=1234)
    _trace, enum_profiles = make_instance(enum_config, 0)
    enum_s, enum_result = _median_solve(EnumerationSolver(), enum_profiles,
                                        enum_config, rounds)
    return {
        "matcher": {
            "config": asdict(config),
            "greedy_fast_s": fast_s,
        },
        "enumeration": {
            "config": asdict(enum_config),
            "seconds": enum_s,
            "dfs_nodes": enum_result.extras["dfs_nodes"],
            "optimal_value": enum_result.extras["optimal_value"],
        },
    }


def measure_offline_scaling(rounds: int = 3,
                            workers_list=_SWEEP_WORKERS) -> dict:
    """Serial vs. process-pool offline comparison (same outputs)."""
    cpus = os.cpu_count() or 1

    def run_once(workers):
        started = time.perf_counter()
        offline_comparison("smoke", workers=workers)
        return time.perf_counter() - started

    serial_s = statistics.median(run_once(None) for _ in range(rounds))
    parallel = {}
    for workers in workers_list:
        seconds = statistics.median(
            run_once(workers) for _ in range(rounds))
        speedup = serial_s / seconds
        effective = min(workers, cpus)
        parallel[str(workers)] = {
            "seconds": seconds,
            "speedup": speedup,
            "efficiency": speedup / effective,
        }
    return {
        "scale": "smoke",
        "cpu_count": cpus,
        "serial_s": serial_s,
        "parallel": parallel,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the offline optimization pipeline, writing "
                    "BENCH_offline.json")
    parser.add_argument("--scales", default="target,target-general",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per measurement (median wins)")
    parser.add_argument("--sweep-rounds", type=int, default=3,
                        help="timing rounds for the parallel experiment")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the workers-scaling measurement")
    parser.add_argument("--output", default="BENCH_offline.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    scales = [scale.strip() for scale in args.scales.split(",")
              if scale.strip()]
    report = {
        **provenance_header("bench_offline.py"),
        "rounds": args.rounds,
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_offline] measuring scale {scale!r} ...",
              file=sys.stderr)
        report["scales"][scale] = measure_local_ratio(scale,
                                                      rounds=args.rounds)
        summary = report["scales"][scale]
        print(f"[bench_offline]   local-ratio "
              f"{summary['fast_s']*1e3:.1f}ms, greedy "
              f"{summary['greedy_fast_s']*1e3:.1f}ms",
              file=sys.stderr)
    print("[bench_offline] measuring matcher/enumeration micro-costs ...",
          file=sys.stderr)
    report["micro"] = measure_micro(rounds=args.rounds)
    if not args.skip_sweep:
        print("[bench_offline] measuring workers scaling ...",
              file=sys.stderr)
        report["sweep"] = measure_offline_scaling(rounds=args.sweep_rounds)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_offline] wrote {args.output}", file=sys.stderr)
    return 0


def bench_offline_speedup(benchmark):
    """pytest-benchmark hook: Local-Ratio at the target scale."""
    config = SCALES["target"]
    _trace, profiles = make_instance(config, 0)
    solver = LocalRatioApproximation()

    def run():
        return solver.solve(profiles, config.epoch, config.budget_vector)

    result = benchmark.pedantic(run, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert result.schedule.respects_budget(config.budget_vector,
                                           config.epoch)


if __name__ == "__main__":
    sys.exit(main())
