"""What sharing a faulty block buys: one block vs. a block per run.

Measures the wall time of the graceful-degradation sweep — every fault
policy variant x every failure rate x every repetition, with the
standard retry allowance and circuit breaker — through
:func:`repro.experiments.faults.fault_sweep` twice on the same kernel
and the same lowered fault plane (ALGORITHMS.md §14): once with every
(policy, rate) run a one-lane block of its own (``engine="solo"``), once
with a repetition's runs as the lanes of one block (``engine="batch"``).
One variable changes — sharing (one lowering, one activity pass, one
draw table per spec seed). Writes the numbers to
``BENCH_faults.json``::

    PYTHONPATH=src python benchmarks/bench_faults_batch.py \
        --output BENCH_faults.json

The ``target`` scale (epoch 200, 50 resources, 60 profiles, 3
repetitions) matches ``bench_batch``; there the whole sweep — 8 policy
variants x 6 failure rates x 3 repetitions = 144 faulty lanes — runs as
three columnar blocks of 48 lanes, one per repetition. Both paths
produce identical
gained-completeness series (asserted on every round; the fault plane is
RNG-stream exact, not statistically similar). Both run in this process
(``workers=1``): the rows measure the one-process kernel, and the
instance cache is warmed before timing so the numbers isolate
simulation, not generation.

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
from repro.experiments.faults import (
    DEFAULT_FAILURE_RATES,
    FAULT_POLICY_VARIANTS,
    fault_sweep,
)

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["measure_fault_sweep", "main"]

#: Scales mirror bench_batch's; the acceptance scale is ``target``.
SCALES: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        epoch_length=40, num_resources=10, num_profiles=12, intensity=5.0,
        window=5, repetitions=2, grouping="overlap", seed=1234),
    "target": ExperimentConfig(
        epoch_length=200, num_resources=50, num_profiles=60, intensity=10.0,
        window=10, repetitions=3, grouping="overlap", seed=1234),
}


def measure_fault_sweep(scale: str, rounds: int = 5,
                        rates=DEFAULT_FAILURE_RATES) -> dict:
    """Median solo vs. batch wall time of one degradation sweep."""
    config = SCALES[scale]

    def run_once(engine: str):
        started = time.perf_counter()
        result = fault_sweep(rates=rates, engine=engine, config=config,
                             workers=1)
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
        if outcome.fell_back:
            raise AssertionError(
                f"{outcome.fell_back} fault lanes fell back to the "
                "reference")
        for label in reference.labels():
            if outcome.series(label) != reference.series(label):
                raise AssertionError(
                    f"batch fault sweep diverged from solo on {label}")
    solo_s = statistics.median(solo_times)
    batch_s = statistics.median(batch_times)
    lanes = len(FAULT_POLICY_VARIANTS) * len(rates) * config.repetitions
    return {
        "config": asdict(config),
        "failure_rates": list(rates),
        "lanes": lanes,
        "solo_s": solo_s,
        "batch_s": batch_s,
        "speedup": solo_s / batch_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark one shared faulty block against a "
                    "one-lane block per run on graceful-degradation "
                    "sweeps, writing BENCH_faults.json")
    parser.add_argument("--scales", default="tiny,target",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per measurement (median wins)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: tiny scale only, 2 rounds")
    parser.add_argument("--output", default="BENCH_faults.json",
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
        **provenance_header("bench_faults_batch.py"),
        "policies": list(FAULT_POLICY_VARIANTS),
        "rounds": rounds,
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_faults_batch] measuring scale {scale!r} ...",
              file=sys.stderr)
        report["scales"][scale] = measure_fault_sweep(scale, rounds=rounds)
        summary = report["scales"][scale]
        print(f"[bench_faults_batch]   speedup {summary['speedup']:.2f}x "
              f"over {summary['lanes']} faulty lanes "
              f"(solo {summary['solo_s']*1e3:.1f}ms, "
              f"batch {summary['batch_s']*1e3:.1f}ms)",
              file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_faults_batch] wrote {args.output}", file=sys.stderr)
    return 0


def bench_faulty_batch_speedup(benchmark):
    """pytest-benchmark hook: one batch-engine degradation sweep at the
    tiny scale, and a sanity assertion that it matches the one-lane
    blocks with zero fallbacks."""
    config = SCALES["tiny"]
    rates = (0.0, 0.25, 0.5)

    def run_batch():
        return fault_sweep(rates=rates, engine="batch", config=config,
                           workers=1)

    batch_result = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    solo_result = fault_sweep(rates=rates, engine="solo", config=config,
                              workers=1)
    assert batch_result.fell_back == 0
    for label in solo_result.labels():
        assert batch_result.series(label) == solo_result.series(label)


if __name__ == "__main__":
    sys.exit(main())
