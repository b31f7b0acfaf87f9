"""The system under test of the ``service`` workload: one async proxy
behind :class:`ProxyService`, in its own process.

Line protocol with ``run.py`` (which is the load generator):

1. child prints ``{"event": "listening", "port": N, "calibration_s": x}``
   (it ran the host-speed kernel for ``x`` seconds first); the parent
   polls ``/readyz`` (that is the end of set-up) and opens its SSE stream;
2. parent writes ``go``; the child ticks the proxy through its epoch in
   real time, runs the kernel again and prints ``{"event": "epoch_done"}``;
3. parent reads ``/stats`` and writes ``stop``; the child shuts the
   service down, replays its own journal, prints its report and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time


async def serve(args) -> dict:
    from repro import (
        BudgetVector,
        Epoch,
        OriginServer,
        PoissonUpdateModel,
    )
    from repro.online import MRSFPolicy
    from repro.runtime.aio import (
        AdmissionController,
        AsyncMonitoringProxy,
        Journal,
        ProxyService,
    )
    from repro.runtime.aio.journal import replay_journal

    import calibration
    from scales import SCALES, TICK_INTERVAL_S

    size = SCALES[args.scale]["service"]
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer
        tracer = Tracer()
        layers.install(tracer)

    epoch = Epoch(size["epoch_length"])
    trace = PoissonUpdateModel(size["intensity"], seed=args.seed).generate(
        range(RESOURCES), epoch)
    journal = Journal(args.journal)
    proxy = AsyncMonitoringProxy(
        OriginServer(trace), epoch, BudgetVector(BUDGET), MRSFPolicy(),
        journal=journal)
    # Admission is on and does its census arithmetic; the cap is far
    # above what one window registers, so nothing is shed or refused.
    admission = AdmissionController(max_tintervals=10_000_000)
    service = ProxyService(proxy, admission)
    loop = asyncio.get_running_loop()
    try:
        _host, port = await service.start()
        kernel = calibration.bracket()
        print(json.dumps({"event": "listening", "port": port,
                          "calibration_s": sum(kernel)}), flush=True)
        await _command(loop, "go")
        started = time.perf_counter()
        await service.serve_epoch(tick_interval=TICK_INTERVAL_S)
        window_s = time.perf_counter() - started
        kernel += calibration.bracket()
        print(json.dumps({"event": "epoch_done"}), flush=True)
        await _command(loop, "stop")
    finally:
        await service.stop()
        journal.close()
        if tracer is not None:
            tracer.restore()

    stats = service.stats_payload()
    report = {
        "window_s": window_s,
        "kernel_s": kernel,
        "stats": stats["stats"],
        "admission": stats["admission"],
        "journal_completions": len(replay_journal(args.journal).completions),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        import layers
        report["layers"] = layers.service_ledger(
            tracer, window_s, args.journal, stats["stats"],
            stats["admission"])
        if args.trace_out:
            tracer.dump(args.trace_out, workload="service", seed=args.seed,
                        scale=args.scale)
    return report


#: Resources behind the origin server and probes per chronon.
RESOURCES = 64
BUDGET = 4


async def _command(loop, expected: str) -> None:
    line = await loop.run_in_executor(None, sys.stdin.readline)
    if line.strip() != expected:
        raise SystemExit(f"service host expected {expected!r}, "
                         f"got {line!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    try:
        report = asyncio.run(serve(args))
    finally:
        if os.path.exists(args.journal):
            os.remove(args.journal)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
