"""Instance-generation performance: generation, cold vs. warm cache.

Measures the best and median wall-times of
:func:`repro.experiments.instances.generate_instance` per trace source
(its one path equals the event-at-a-time specification in
``tests/workloads/oracle.py`` seed for seed — see
``tests/properties/test_prop_instances.py``), plus what one
:class:`~repro.experiments.instances.InstanceCache` lookup costs cold
(generate), warm from the disk store and warm from memory — each with
the columnar lowering a batch run then needs, whose held bytes per EI
(``lower_bytes_per_ei``) and traced build peak (``lower_peak_mb``, MiB)
are recorded beside its time — and writes the numbers to
``BENCH_instances.json``::

    PYTHONPATH=src python benchmarks/bench_instances.py \
        --output BENCH_instances.json

``--cache-scales tiny,catalog`` picks the configs of the cache section
(``catalog`` is the e2e benchmark's contract-scale catalog instance);
``--cache-before OLD.json`` copies the cache section of a report made
with the same script against another checkout's ``src`` in as
``before``, so one file holds both sides.

The ``target`` scale (epoch 200, 50 resources, 60 profiles) matches the
tracked batch/offline benches.

``--cache-check`` runs the CI smoke assertion instead: a cold and a warm
pass over a temporary cache directory must produce identical results
with non-zero hit counters (both in this process, ``workers=1``, whose
cache the counters are), and the lowering of a disk hit must equal
the cold lowering column for column, dtypes included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_setting
from repro.experiments.instances import (
    InstanceCache,
    configure_instances,
    generate_instance,
)
from repro.simulation.columnar import ColumnarInstance

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["measure_generation", "measure_cache", "main"]

#: Instance scales measured; ``tiny`` exists for CI smoke runs.
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
    # benchmarks/e2e's ``catalog`` workload at the contract scale.
    "catalog": ExperimentConfig(
        epoch_length=100, num_resources=500, num_profiles=5000,
        intensity=20.0, budget=16, window=5, seed=1234),
}


def _time_once(config: ExperimentConfig, source: str) -> float:
    """Wall-time of one full instance generation."""
    started = time.perf_counter()
    generate_instance(config, 0, source)
    return time.perf_counter() - started


def measure_generation(scale: str, rounds: int = 20,
                       sources=("poisson", "auction")) -> dict:
    """Generation wall-times at one scale, per source.

    The *best* of the rounds (``generate_s``) is the headline number
    (timeit-style: the minimum is the run least disturbed by scheduler
    noise, which matters on loaded CI boxes); the median is recorded
    alongside for transparency.
    """
    config = SCALES[scale]
    per_source: dict[str, dict] = {}
    for source in sources:
        # Warm-up imports and realizes lazy caches outside the timings.
        _time_once(config, source)
        times = [_time_once(config, source) for _ in range(rounds)]
        per_source[source] = {"generate_s": min(times),
                              "generate_median_s": statistics.median(times)}
    return {
        "config": asdict(config),
        "sources": per_source,
    }


def _outcome_table(run) -> dict[str, list[float]]:
    return {label: list(outcome.gc_values)
            for label, outcome in run.outcomes.items()}


def _timed(call):
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def _lowering_footprint(profiles, epoch) -> dict[str, float]:
    """Bytes per EI a lowering of ``profiles`` holds
    (:attr:`~repro.simulation.columnar.ColumnarInstance.nbytes`) and
    the traced peak of building it, in MiB."""
    tracemalloc.start()
    try:
        col = ColumnarInstance.build(profiles, epoch)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"lower_bytes_per_ei": col.nbytes / max(col.E, 1),
            "lower_peak_mb": peak / 2**20}


def _column_mismatches(cold: ColumnarInstance,
                       warm: ColumnarInstance) -> list[str]:
    """The array attributes two lowerings disagree on, by name, value
    or dtype."""
    arrays = [{name: value for name, value in vars(col).items()
               if isinstance(value, np.ndarray)} for col in (cold, warm)]
    return sorted(
        name for name in arrays[0].keys() | arrays[1].keys()
        if name not in arrays[0] or name not in arrays[1]
        or arrays[0][name].dtype != arrays[1][name].dtype
        or not np.array_equal(arrays[0][name], arrays[1][name]))


def measure_cache(scale: str, rounds: int = 5) -> dict:
    """What one cache lookup costs: cold, warm from disk, warm from memory.

    Per round, over a fresh temporary store: a cold lookup that
    generates and writes the entry, a second cache object (standing in
    for a new process) that reads it back, and the same lookup again
    from that object's memory. A generation without any store gives the
    cold cost a user without ``--cache-dir`` pays. Each instance is
    then lowered, since that is what a batch run does with it next; the
    cold instance once more, untimed, for the lowering's footprint.
    Medians over the rounds.
    """
    config = SCALES[scale]
    times: dict[str, list[float]] = {}

    def note(name: str, seconds: float) -> None:
        times.setdefault(name, []).append(seconds)

    for _ in range(rounds):
        seconds, (_trace, profiles) = _timed(
            lambda: InstanceCache().get_or_generate(config, 0))
        note("cold_generate_s", seconds)
        note("cold_lower_s", _timed(
            lambda: ColumnarInstance.build(profiles, config.epoch))[0])
        for name, value in _lowering_footprint(profiles,
                                               config.epoch).items():
            note(name, value)
        with tempfile.TemporaryDirectory() as tmp:
            writer = InstanceCache(cache_dir=tmp)
            note("cold_generate_and_store_s", _timed(
                lambda: writer.get_or_generate(config, 0))[0])
            reader = InstanceCache(cache_dir=tmp)
            seconds, (_trace, profiles) = _timed(
                lambda: reader.get_or_generate(config, 0))
            note("disk_hit_s", seconds)
            note("disk_hit_lower_s", _timed(
                lambda: ColumnarInstance.build(profiles, config.epoch))[0])
            note("memory_hit_s", _timed(
                lambda: reader.get_or_generate(config, 0))[0])
            assert writer.stats()["stores"] == 1, writer.stats()
            assert reader.stats() == {
                "memory_hits": 1, "disk_hits": 1, "misses": 0,
                "stores": 0, "disk_errors": 0}, reader.stats()
    report = {name: statistics.median(values)
              for name, values in times.items()}
    report["disk_hit_speedup"] = (report["cold_generate_s"]
                                  / report["disk_hit_s"])
    return {"config": asdict(config), "rounds": rounds, **report}


def cache_check(scale: str = "tiny") -> int:
    """CI smoke: cold + warm pass with non-zero hit counters.

    Returns a process exit code (0 = pass). Asserts that the cold pass
    stores every instance, the warm pass serves them from disk without
    regenerating anything, both passes agree on every GC value, and a
    disk hit lowers to the cold instance's columns — values and dtypes:
    the store keeps int64 columns, which the lowering narrows the same
    way on either path.
    """
    config = SCALES[scale].with_(repetitions=2)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cold_cache = configure_instances(cache_dir=tmp)
            cold = run_setting(config, workers=1)
            cold_stats = cold_cache.stats()
            warm_cache = configure_instances(cache_dir=tmp)
            warm = run_setting(config, workers=1)
            warm_stats = warm_cache.stats()
        finally:
            configure_instances(cache_dir=None)
        reader = InstanceCache(cache_dir=tmp)
        lowered = [ColumnarInstance.build(
            cache.get_or_generate(config, 0)[1], config.epoch)
            for cache in (InstanceCache(), reader)]
    problems = []
    if cold_stats["misses"] == 0 or cold_stats["stores"] == 0:
        problems.append(f"cold pass did not populate the store: "
                        f"{cold_stats}")
    if warm_stats["disk_hits"] == 0 or warm_stats["misses"] > 0:
        problems.append(f"warm pass did not hit the store: {warm_stats}")
    if cold_stats["disk_errors"] or warm_stats["disk_errors"]:
        problems.append("disk errors recorded")
    if _outcome_table(cold) != _outcome_table(warm):
        problems.append("cold and warm results differ")
    if reader.stats()["disk_hits"] != 1:
        problems.append(f"the lowering check missed the store: "
                        f"{reader.stats()}")
    differ = _column_mismatches(*lowered)
    if differ:
        problems.append(f"a disk hit lowers to other columns: {differ}")
    for problem in problems:
        print(f"[bench_instances] CACHE CHECK FAILED: {problem}",
              file=sys.stderr)
    if not problems:
        print(f"[bench_instances] cache check passed "
              f"(cold {cold_stats}, warm {warm_stats})", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark instance generation and the instance "
                    "cache, writing BENCH_instances.json")
    parser.add_argument("--scales", default="small,target",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=20,
                        help="generation timing rounds per source "
                             "(best and median recorded)")
    parser.add_argument("--cache-rounds", type=int, default=5,
                        help="timing rounds for the cache bench")
    parser.add_argument("--cache-scales", default="tiny,catalog",
                        help="comma-separated scales of the cache bench")
    parser.add_argument("--cache-before", default=None,
                        help="an earlier report whose cache section is "
                             "copied in as each scale's 'before'")
    parser.add_argument("--skip-cache", action="store_true",
                        help="skip the cold/warm cache measurement")
    parser.add_argument("--cache-check", action="store_true",
                        help="run the CI cache round-trip assertion "
                             "instead of the timing benches")
    parser.add_argument("--output", default="BENCH_instances.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.cache_check:
        return cache_check()

    scales = [scale.strip() for scale in args.scales.split(",")
              if scale.strip()]
    report = {
        **provenance_header("bench_instances.py"),
        "rounds": args.rounds,
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_instances] measuring scale {scale!r} ...",
              file=sys.stderr)
        report["scales"][scale] = measure_generation(scale,
                                                     rounds=args.rounds)
        for source, numbers in report["scales"][scale]["sources"].items():
            print(f"[bench_instances]   {source}: "
                  f"best {numbers['generate_s']*1e3:.2f}ms, "
                  f"median {numbers['generate_median_s']*1e3:.2f}ms",
                  file=sys.stderr)
    if not args.skip_cache:
        before = {}
        if args.cache_before:
            with open(args.cache_before, encoding="utf-8") as handle:
                old = json.load(handle)
            before = {scale: {"git_rev": old.get("git_rev", "unknown"),
                              **numbers["after"]}
                      for scale, numbers in old["cache"].items()}
        report["cache"] = {}
        for scale in args.cache_scales.split(","):
            print(f"[bench_instances] measuring cache at {scale!r} ...",
                  file=sys.stderr)
            after = measure_cache(scale, rounds=args.cache_rounds)
            report["cache"][scale] = {"after": after}
            if scale in before:
                report["cache"][scale]["before"] = before[scale]
            print(f"[bench_instances]   cold "
                  f"{after['cold_generate_s']*1e3:.1f}ms, disk hit "
                  f"{after['disk_hit_s']*1e3:.1f}ms "
                  f"({after['disk_hit_speedup']:.1f}x), memory hit "
                  f"{after['memory_hit_s']*1e6:.0f}us", file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_instances] wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
