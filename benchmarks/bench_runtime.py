"""Async proxy service performance: throughput and tick latency.

Measures the :class:`~repro.runtime.aio.proxy.AsyncMonitoringProxy`
driving the chaos harness's scripted scenarios — the same construction
the soak invariants are proven on — and writes ``BENCH_runtime.json``
so future changes to the async stack are compared against a tracked
baseline::

    PYTHONPATH=src python benchmarks/bench_runtime.py \
        --output BENCH_runtime.json

Two scenario families are measured at each scale:

* ``healthy`` — fault-free; this is the async stack's overhead floor
  (coroutine fan-out, ledger, journal-less bookkeeping) and the
  capture-identity regime;
* ``fault-storm`` — drops, timeouts, and retries; this is where
  deadlines, backoff, and the breaker earn their keep, and where tick
  latency shows the cost of in-chronon recovery work.

Headline numbers per scenario: ``notifications_per_s`` (delivered
notifications over wall time) and ``tick_p99_ms`` (worst-case chronon
processing latency, the service's responsiveness bound).

The module doubles as a pytest-benchmark bench
(``bench_runtime_healthy_epoch``) asserting the healthy scenario stays
invariant-clean while being measured.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, replace

from repro.runtime.aio.chaos import ChaosConfig, build_scenario, run_soak

try:
    from benchmarks._provenance import provenance_header
except ImportError:  # run as a top-level script (python benchmarks/...)
    from _provenance import provenance_header

__all__ = ["measure_scenario", "main"]

#: Scenario scales. ``tiny`` exists for CI smoke runs; ``target`` is the
#: tracked baseline scale.
SCALES: dict[str, ChaosConfig] = {
    "tiny": ChaosConfig(epoch_length=40, num_resources=8,
                        num_profiles=12, budget=2, seed=1234),
    "target": ChaosConfig(epoch_length=200, num_resources=32,
                          num_profiles=60, budget=4, seed=1234),
}

#: The fault-storm overlay applied to a healthy scale.
_STORM = dict(failure_probability=0.25, timeout_probability=0.1,
              max_retries=2)


async def _measured_run(config: ChaosConfig):
    """One scripted run, timing every chronon tick."""
    _epoch, initial, plan, proxy = build_scenario(config)
    client = proxy.register_client("bench")
    tick_seconds: list[float] = []
    chronons = proxy.follow(client, initial, plan)
    started = time.perf_counter()
    for _ in chronons:
        tick_started = time.perf_counter()
        await proxy.astep()
        tick_seconds.append(time.perf_counter() - tick_started)
    wall = time.perf_counter() - started
    return await proxy.arun(), len(client.mailbox), wall, tick_seconds


def _percentile(values: list[float], fraction: float) -> float:
    ranked = sorted(values)
    index = min(len(ranked) - 1, int(fraction * (len(ranked) - 1)))
    return ranked[index]


def measure_scenario(config: ChaosConfig, rounds: int = 3) -> dict:
    """Median-of-rounds measurement of one scenario."""
    runs = [asyncio.run(_measured_run(config)) for _ in range(rounds)]
    stats, delivered, _, _ = runs[0]
    wall = statistics.median(run[2] for run in runs)
    ticks = [second for run in runs for second in run[3]]
    return {
        "config": asdict(config),
        "delivered": delivered,
        "completed": stats.completed,
        "expired": stats.expired,
        "requests_sent": stats.requests_sent,
        "probes_failed": stats.probes_failed,
        "retries": stats.retries,
        "wall_s": wall,
        "notifications_per_s": delivered / wall if wall else 0.0,
        "ticks_per_s": config.epoch_length / wall if wall else 0.0,
        "tick_p50_ms": _percentile(ticks, 0.50) * 1e3,
        "tick_p99_ms": _percentile(ticks, 0.99) * 1e3,
        "tick_max_ms": max(ticks) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the async proxy runtime, writing "
                    "BENCH_runtime.json")
    parser.add_argument("--scales", default="target",
                        help="comma-separated scales to measure "
                             f"(available: {','.join(SCALES)})")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per scenario (median wins)")
    parser.add_argument("--output", default="BENCH_runtime.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    scales = [scale.strip() for scale in args.scales.split(",")
              if scale.strip()]
    report = {
        **provenance_header("bench_runtime.py"),
        "rounds": args.rounds,
        "scales": {},
    }
    for scale in scales:
        healthy_config = SCALES[scale]
        storm_config = replace(healthy_config, **_STORM)
        entry = {}
        for name, config in (("healthy", healthy_config),
                             ("fault-storm", storm_config)):
            print(f"[bench_runtime] measuring {scale}/{name} ...",
                  file=sys.stderr)
            entry[name] = measure_scenario(config, rounds=args.rounds)
            summary = entry[name]
            print(f"[bench_runtime]   "
                  f"{summary['notifications_per_s']:.0f} notifications/s, "
                  f"tick p99 {summary['tick_p99_ms']:.2f}ms "
                  f"({summary['requests_sent']} requests, "
                  f"{summary['probes_failed']} failed)",
                  file=sys.stderr)
        report["scales"][scale] = entry
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench_runtime] wrote {args.output}", file=sys.stderr)
    return 0


def bench_runtime_healthy_epoch(benchmark):
    """pytest-benchmark hook: a healthy tiny-scale epoch end to end,
    with the soak invariants asserted on the measured configuration."""
    config = SCALES["tiny"]

    def run_epoch():
        return asyncio.run(_measured_run(config))

    benchmark.pedantic(run_epoch, rounds=3, iterations=1)
    report = asyncio.run(run_soak(config))
    assert report.ok, report.describe()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
