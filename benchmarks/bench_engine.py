"""Engine performance trajectory: reference vs. fast, serial vs. parallel.

Measures median wall-times of the two simulation engines
(:class:`~repro.simulation.proxy.ProxySimulator` vs
:class:`~repro.simulation.engine.FastProxySimulator`) over the paper's
headline policy line-up at two instance scales, plus the serial vs.
process-pool sweep executor, and writes the numbers to
``BENCH_engine.json`` so future changes can be compared against a
tracked baseline::

    PYTHONPATH=src python benchmarks/bench_engine.py \
        --output BENCH_engine.json

The ``target`` scale (epoch 200, 50 resources, 60 profiles) matches
``bench_micro.bench_full_online_run``. Sweep-scaling numbers depend on
the machine: ``cpu_count`` is recorded and the reported ``efficiency``
is the speedup divided by the *effective* worker count
(``min(workers, cpu_count)``), so a single-core CI box reports pool
overhead honestly instead of fake linear scaling.

The module doubles as a pytest-benchmark bench
(``bench_engine_speedup``) asserting the fast engine actually is faster.
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
from repro.experiments.harness import (
    DEFAULT_POLICIES,
    make_instance,
    sweep,
)
from repro.online.registry import parse_policy_spec
from repro.simulation.proxy import run_online

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["bench_engines", "bench_sweep_scaling", "main"]

#: Instance scales measured by the engine bench. ``target`` is the
#: ``bench_full_online_run`` scale; ``tiny`` exists for CI smoke runs.
SCALES: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        epoch_length=40, num_resources=10, num_profiles=12, intensity=5.0,
        window=5, repetitions=1, grouping="overlap", seed=1234),
    "small": ExperimentConfig(
        epoch_length=100, num_resources=25, num_profiles=30, intensity=8.0,
        window=8, repetitions=1, grouping="overlap", seed=1234),
    "target": ExperimentConfig(
        epoch_length=200, num_resources=50, num_profiles=60, intensity=10.0,
        window=10, repetitions=1, grouping="overlap", seed=1234),
}

_SWEEP_WORKERS = (2, 4)


def _median_run(profiles, config: ExperimentConfig, spec: str,
                engine: str, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        policy, preemptive = parse_policy_spec(spec)
        started = time.perf_counter()
        run_online(profiles, config.epoch, config.budget_vector, policy,
                   preemptive=preemptive, engine=engine)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def bench_engines(scale: str, rounds: int = 5,
                  policies=DEFAULT_POLICIES) -> dict:
    """Median reference vs. fast wall-times at one scale, per policy."""
    config = SCALES[scale]
    _trace, profiles = make_instance(config, 0)
    per_policy: dict[str, dict] = {}
    total_ref = 0.0
    total_fast = 0.0
    for spec in policies:
        reference_s = _median_run(profiles, config, spec, "reference",
                                  rounds)
        fast_s = _median_run(profiles, config, spec, "fast", rounds)
        total_ref += reference_s
        total_fast += fast_s
        per_policy[spec] = {
            "reference_s": reference_s,
            "fast_s": fast_s,
            "speedup": reference_s / fast_s,
        }
    return {
        "config": asdict(config),
        "policies": per_policy,
        "total_reference_s": total_ref,
        "total_fast_s": total_fast,
        "speedup": total_ref / total_fast,
    }


def bench_sweep_scaling(rounds: int = 3, scale: str = "small",
                        workers_list=_SWEEP_WORKERS) -> dict:
    """Serial vs. process-pool sweep wall-times (same outputs)."""
    config = SCALES[scale].with_(repetitions=4)
    values = [1, 2]
    cpus = os.cpu_count() or 1

    def run_once(workers):
        started = time.perf_counter()
        # engine="fast": BENCH_engine.json's ratios time the per-run
        # engine's executor, not the harness default (columnar blocks).
        sweep("bench", config, "budget", values, workers=workers,
              engine="fast")
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
        "config": asdict(config),
        "swept_values": values,
        "cpu_count": cpus,
        "serial_s": serial_s,
        "parallel": parallel,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulation engines and sweep executor, "
                    "writing BENCH_engine.json")
    parser.add_argument("--scales", default="small,target",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per measurement (median wins)")
    parser.add_argument("--sweep-rounds", type=int, default=3,
                        help="timing rounds for the sweep executor")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the sweep-scaling measurement")
    parser.add_argument("--output", default="BENCH_engine.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    scales = [scale.strip() for scale in args.scales.split(",")
              if scale.strip()]
    report = {
        **provenance_header("bench_engine.py"),
        "policies": list(DEFAULT_POLICIES),
        "rounds": args.rounds,
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_engine] measuring scale {scale!r} ...",
              file=sys.stderr)
        report["scales"][scale] = bench_engines(scale, rounds=args.rounds)
        summary = report["scales"][scale]
        print(f"[bench_engine]   speedup {summary['speedup']:.2f}x "
              f"(ref {summary['total_reference_s']*1e3:.1f}ms, "
              f"fast {summary['total_fast_s']*1e3:.1f}ms)",
              file=sys.stderr)
    if not args.skip_sweep:
        print("[bench_engine] measuring sweep scaling ...", file=sys.stderr)
        report["sweep"] = bench_sweep_scaling(rounds=args.sweep_rounds,
                                              scale=scales[0])
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_engine] wrote {args.output}", file=sys.stderr)
    return 0


def bench_engine_speedup(benchmark):
    """pytest-benchmark hook: fast engine at the target scale, and a
    sanity assertion that it beats the reference."""
    config = SCALES["target"]
    _trace, profiles = make_instance(config, 0)

    def run_fast():
        policy, preemptive = parse_policy_spec("MRSF(P)")
        return run_online(profiles, config.epoch, config.budget_vector,
                          policy, preemptive=preemptive, engine="fast")

    benchmark.pedantic(run_fast, rounds=3, iterations=1)
    reference_s = _median_run(profiles, config, "MRSF(P)", "reference", 3)
    fast_s = _median_run(profiles, config, "MRSF(P)", "fast", 3)
    assert fast_s < reference_s


if __name__ == "__main__":
    sys.exit(main())
