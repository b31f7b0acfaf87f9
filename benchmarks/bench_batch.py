"""What sharing a block buys: one shared block vs. a block per run.

Measures the wall time of a figure-shaped budget sweep — every policy of
the paper's headline line-up x every budget value x every repetition,
all sharing generated instances — through the harness twice on the same
kernel: once with every (policy, budget) run a one-lane block of its own
(``engine="solo"``), once with the runs of a repetition as the lanes of
one block (``engine="batch"``). One variable changes — sharing — so the
ratio is what the lanes save (one lowering, one activity pass, one
Python loop), not one engine against another. Writes the numbers to
``BENCH_batch.json``::

    PYTHONPATH=src python benchmarks/bench_batch.py \
        --output BENCH_batch.json

At the ``target`` scale (epoch 200, 50 resources, 60 profiles) the
sweep is one columnar block of policies x budgets (20) lanes per
repetition — three blocks over three lowerings — against 60 one-lane
blocks. Both paths produce
identical gained-completeness series (asserted on every round). Both
run in this process (``workers=1``): the rows measure the one-process
kernel, and the instance cache is warmed before timing so the numbers
isolate simulation, not generation.

``--smoke`` restricts the run to the tiny scale with fewer rounds for
CI.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import DEFAULT_POLICIES, sweep

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["measure_figure_sweep", "main"]

#: Every repetition is a block of its own (the acceptance scale is
#: ``target``).
SCALES: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        epoch_length=40, num_resources=10, num_profiles=12, intensity=5.0,
        window=5, repetitions=2, grouping="overlap", seed=1234),
    "target": ExperimentConfig(
        epoch_length=200, num_resources=50, num_profiles=60, intensity=10.0,
        window=10, repetitions=3, grouping="overlap", seed=1234),
}

_BUDGETS = [1, 2, 3, 4, 5]


def measure_figure_sweep(scale: str, rounds: int = 5,
                         policies=DEFAULT_POLICIES) -> dict:
    """Median solo vs. batch wall time of one full budget sweep."""
    config = SCALES[scale]

    def run_once(engine: str):
        started = time.perf_counter()
        result = sweep("bench", config, "budget", _BUDGETS,
                       policies=list(policies), engine=engine, workers=1)
        return time.perf_counter() - started, result

    # Warm the instance cache (and numpy) outside the timed region.
    _, reference = run_once("solo")
    solo_times = []
    batch_times = []
    for _ in range(rounds):
        seconds, outcome = run_once("solo")
        solo_times.append(seconds)
        seconds, outcome = run_once("batch")
        batch_times.append(seconds)
        for label in reference.labels():
            if outcome.series(label) != reference.series(label):
                raise AssertionError(
                    f"batch sweep diverged from solo on {label}")
    solo_s = statistics.median(solo_times)
    batch_s = statistics.median(batch_times)
    lanes = len(policies) * len(_BUDGETS) * config.repetitions
    return {
        "config": asdict(config),
        "budgets": _BUDGETS,
        "lanes": lanes,
        "solo_s": solo_s,
        "batch_s": batch_s,
        "speedup": solo_s / batch_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark one shared columnar block against a "
                    "one-lane block per run on full-figure sweeps, "
                    "writing BENCH_batch.json")
    parser.add_argument("--scales", default="tiny,target",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per measurement (median wins)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: tiny scale only, 2 rounds")
    parser.add_argument("--output", default="BENCH_batch.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.smoke:
        scales = ["tiny"]
        rounds = 2
    else:
        scales = [scale.strip() for scale in args.scales.split(",")
                  if scale.strip()]
        rounds = args.rounds
    report = {
        **provenance_header("bench_batch.py"),
        "policies": list(DEFAULT_POLICIES),
        "rounds": rounds,
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_batch] measuring scale {scale!r} ...",
              file=sys.stderr)
        report["scales"][scale] = measure_figure_sweep(scale, rounds=rounds)
        summary = report["scales"][scale]
        print(f"[bench_batch]   speedup {summary['speedup']:.2f}x "
              f"over {summary['lanes']} lanes "
              f"(solo {summary['solo_s']*1e3:.1f}ms, "
              f"batch {summary['batch_s']*1e3:.1f}ms)",
              file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_batch] wrote {args.output}", file=sys.stderr)
    return 0


def bench_batch_speedup(benchmark):
    """pytest-benchmark hook: one batch-engine sweep at the tiny scale,
    and a sanity assertion that it matches the one-lane blocks."""
    config = SCALES["tiny"]

    def run_batch():
        return sweep("bench", config, "budget", [1, 2],
                     policies=list(DEFAULT_POLICIES), engine="batch",
                     workers=1)

    batch_result = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    solo_result = sweep("bench", config, "budget", [1, 2],
                        policies=list(DEFAULT_POLICIES), engine="solo",
                        workers=1)
    for label in solo_result.labels():
        assert batch_result.series(label) == solo_result.series(label)


if __name__ == "__main__":
    sys.exit(main())
