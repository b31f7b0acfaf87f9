"""Sharded proxy federation vs. one lane of the block kernel.

Measures one policy run over a large catalog — the monolith, a one-lane
:func:`repro.simulation.batch.run_block`, against
:func:`repro.simulation.shard.federated_run` at several shard counts
(K ∈ {1, 2, 4, 8, 16}) — and writes the numbers to
``BENCH_federation.json``::

    PYTHONPATH=src python benchmarks/bench_federation.py \
        --output BENCH_federation.json

The ``catalog`` scale holds 500k profiles (feasible via the vectorized
instance generator + cache); the monolith and every federated run share
the catalog's columnar lowering and run the same chronon loop, so a
``speedup`` is K against one lane with one variable changed — the select
step: per-shard proposals + coordinator merge + ledger settlement. Every
round asserts the federated schedule is probe-for-probe identical to the
monolith's — for *every* K, which is why the reported
``gc_degradation`` column is exactly 0.0 per shard count.

``--smoke`` restricts the run to the tiny scale with fewer rounds for
CI.
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
from repro.online.registry import parse_policy_spec
from repro.simulation.batch import run_block
from repro.simulation.columnar import ColumnarInstance
from repro.simulation.shard import federated_run

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["bench_federation", "main"]

#: ``catalog`` is the acceptance scale: 500k profiles, a half-million
#: catalog served under one budget. ``tiny`` is the CI smoke scale.
SCALES: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        epoch_length=60, num_resources=16, num_profiles=60,
        intensity=8.0, budget=3, window=6, repetitions=1,
        grouping="overlap", seed=1234),
    "catalog": ExperimentConfig(
        epoch_length=100, num_resources=500, num_profiles=500_000,
        intensity=20.0, budget=16, window=5, repetitions=1,
        grouping="overlap", seed=20080407),
}

SHARD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)

_POLICY = "M-EDF(P)"


def bench_federation(scale: str, rounds: int = 3,
                     shard_counts=SHARD_COUNTS) -> dict:
    """Median monolith vs. federated wall time at one scale."""
    config = SCALES[scale]
    _trace, profiles = make_instance(config, 0)
    col = ColumnarInstance.build(profiles, config.epoch)

    def run_monolith():
        policy, preemptive = parse_policy_spec(_POLICY)
        started = time.perf_counter()
        (result,) = run_block(
            profiles, config.epoch,
            [(policy, preemptive, config.budget_vector)], columnar=col)
        return time.perf_counter() - started, result

    def run_federated(shards: int):
        policy, preemptive = parse_policy_spec(_POLICY)
        started = time.perf_counter()
        fed = federated_run(profiles, config.epoch, config.budget_vector,
                            policy, preemptive=preemptive, shards=shards,
                            columnar=col)
        return time.perf_counter() - started, fed

    # Warm caches (instance cache is already warm; this warms numpy, the
    # page cache and a lowering's kept window) outside the timed region.
    _, reference = run_monolith()
    reference_probes = list(reference.schedule.probes())

    mono_times: list[float] = []
    fed_times: dict[int, list[float]] = {k: [] for k in shard_counts}
    fed_gc: dict[int, float] = {}
    fed_loads: dict[int, dict] = {}
    for _ in range(rounds):
        seconds, result = run_monolith()
        mono_times.append(seconds)
        if list(result.schedule.probes()) != reference_probes:
            raise AssertionError("monolith run diverged between rounds")
        for shards in shard_counts:
            seconds, fed = run_federated(shards)
            fed_times[shards].append(seconds)
            if list(fed.result.schedule.probes()) != reference_probes:
                raise AssertionError(
                    f"federated K={shards} diverged from the monolith")
            fed_gc[shards] = fed.result.gc
            fed_loads[shards] = {
                "probes_routed": [load.probes_routed
                                  for load in fed.loads],
                "resources": [load.resources for load in fed.loads],
                "stolen_budget": fed.stolen_budget,
                "steal_transfers": fed.steal_transfers,
            }

    mono_s = statistics.median(mono_times)
    probes = reference.probes_used
    shards_report = {}
    for shards in shard_counts:
        fed_s = statistics.median(fed_times[shards])
        shards_report[f"K{shards}"] = {
            "shards": shards,
            "seconds": fed_s,
            "gc": fed_gc[shards],
            "gc_degradation": reference.gc - fed_gc[shards],
            "probes_per_s": probes / fed_s,
            "speedup": mono_s / fed_s,
            **fed_loads[shards],
        }
    return {
        "config": asdict(config),
        "policy": _POLICY,
        "monolith_s": mono_s,
        "monolith_gc": reference.gc,
        "probes_used": probes,
        "monolith_probes_per_s": probes / mono_s,
        "shards": shards_report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the sharded proxy federation against one "
                    "lane of the block kernel, writing "
                    "BENCH_federation.json")
    parser.add_argument("--scales", default="tiny,catalog",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per measurement (median wins)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: tiny scale only, 5 rounds "
                             "(tiny runs are ~20ms, so extra rounds are "
                             "cheap and steady the gated ratios)")
    parser.add_argument("--output", default="BENCH_federation.json",
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
        **provenance_header("bench_federation.py"),
        "policy": _POLICY,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "scales": {},
    }
    for scale in scales:
        print(f"[bench_federation] measuring scale {scale!r} ...",
              file=sys.stderr)
        summary = bench_federation(scale, rounds=rounds)
        report["scales"][scale] = summary
        for name, row in summary["shards"].items():
            print(f"[bench_federation]   {name}: {row['speedup']:.2f}x "
                  f"monolith ({row['seconds']*1e3:.1f}ms, "
                  f"gc degradation {row['gc_degradation']:.6f}, "
                  f"stolen {row['stolen_budget']})",
                  file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_federation] wrote {args.output}", file=sys.stderr)
    return 0


def bench_federation_smoke(benchmark):
    """pytest-benchmark hook: one K=4 federated run at the tiny scale,
    with a sanity assertion that it matches the monolith."""
    config = SCALES["tiny"]
    _trace, profiles = make_instance(config, 0)
    col = ColumnarInstance.build(profiles, config.epoch)

    def run_federated():
        policy, preemptive = parse_policy_spec(_POLICY)
        return federated_run(profiles, config.epoch,
                             config.budget_vector, policy,
                             preemptive=preemptive, shards=4,
                             columnar=col)

    fed = benchmark.pedantic(run_federated, rounds=3, iterations=1)
    policy, preemptive = parse_policy_spec(_POLICY)
    (mono,) = run_block(profiles, config.epoch,
                        [(policy, preemptive, config.budget_vector)],
                        columnar=col)
    assert list(fed.result.schedule.probes()) == \
        list(mono.schedule.probes())


if __name__ == "__main__":
    sys.exit(main())
