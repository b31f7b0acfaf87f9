"""Command-line entry point: ``repro-experiments``.

Runs any of the paper's tables/figures and prints the tables
``repro.experiments.reporting.tables`` makes of the result, as ASCII
or (``--csv``) as CSV; ``--output DIR`` also writes each table to
``DIR/<stem>.csv`` and ``DIR/<stem>.txt``. Examples::

    repro-experiments table1 --scale default
    repro-experiments fig4 --scale paper
    repro-experiments all --scale smoke --csv --output results/
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module

from repro.experiments.reporting import Table, tables, write_tables

__all__ = ["main"]

#: Experiment name -> ``"module:function"``, imported when dispatched:
#: ``serve``, ``stats`` and ``--help`` load no figure.
_EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.figures:table1",
    "fig3": "repro.experiments.figures:figure3",
    "fig4": "repro.experiments.figures:figure4",
    "fig5": "repro.experiments.figures:figure5",
    "fig6": "repro.experiments.figures:figure6",
    "fig7": "repro.experiments.figures:figure7",
    "fig8": "repro.experiments.figures:figure8",
    "churn": "repro.experiments.churn:churn_sweep",
    "faults": "repro.experiments.faults:fault_sweep",
    "offline": "repro.experiments.offline:offline_comparison",
}

#: The experiments whose runner takes ``engine=``; every runner takes
#: ``workers=`` (``tests/experiments/test_cli.py`` holds both to the
#: signatures).
_TAKES_ENGINE = frozenset(_EXPERIMENTS) - {"offline"}


def _runner(name: str):
    """Import and return the function behind an experiment name."""
    module, _, function = _EXPERIMENTS[name].partition(":")
    return getattr(import_module(module), function)


def _worker_count(text: str) -> int:
    """``--workers``: a pool needs at least one process."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return count


def _tick_seconds(text: str) -> float:
    """``--tick-interval``: a finite pause; 0 runs unpaced."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = -1.0
    if not 0.0 <= seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return seconds


def _port(text: str) -> int:
    """``--port``: a TCP port; 0 picks a free one."""
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected an integer in 0..65535, got {text!r}")
    return port


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro.experiments.config import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Roitman, Gal & "
                    "Raschid, ICDE 2008.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "stats", "serve", "soak",
                                        "bench-report"],
        help="which table/figure to run ('all' runs everything; "
             "'stats' prints baseline instance statistics; 'faults' "
             "sweeps origin-server failure rates for the "
             "graceful-degradation curves; 'churn' sweeps client "
             "arrival spread and churn-out over a churn plan; 'offline' "
             "compares the offline solvers in the P^[1] regime; "
             "'serve' starts the "
             "async HTTP/SSE proxy service; 'soak' runs the "
             "deterministic chaos harness; 'bench-report' prints the "
             "committed benchmark baselines and gates on regressions)",
    )
    parser.add_argument(
        "--scale", choices=["paper", "default", "smoke"],
        default="default",
        help="experiment scale: 'paper' = full Table-1 sizes, 'default' = "
             "reduced benchmark sizes, 'smoke' = tiny",
    )
    parser.add_argument(
        "--csv", action="store_true",
        help="print each table as CSV instead of ASCII",
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=None, metavar="N",
        help="run the independent jobs (a sweep's generated instances, "
             "a churn scenario, an offline cell) on N processes, this "
             "one and N-1 forked children (default: one per CPU this process may run on, "
             "capped by the jobs, for batch-engine sweeps; serial for "
             "runs that report runtimes: table1, fig3, fig5, churn, "
             "offline and any --engine solo|reference); gained "
             "completeness is identical to the serial path",
    )
    parser.add_argument(
        "--engine", choices=ENGINES,
        default=None,
        help="what runs the online policy runs: 'batch' runs those "
             "sharing a generated instance as lanes of one columnar "
             "block, 'solo' each as a one-lane block of its own (per-"
             "policy runtimes; a churned run is always one lane), "
             "'reference' is the executable specification (for 'churn' "
             "the live proxy); results are identical, and 'offline' "
             "has no such run to re-route. Default: "
             "'batch' for the GC sweeps, 'solo' for the "
             "runtime-reporting table1, fig3 and fig5",
    )
    parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="also write each table to DIR/<stem>.csv and "
             "DIR/<stem>.txt",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist generated problem instances under DIR "
             "(content-addressed .npz + manifest); repeated runs with "
             "the same settings reload instances instead of "
             "regenerating them",
    )
    service = parser.add_argument_group("async service ('serve'/'soak')")
    service.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for 'serve' (default: 127.0.0.1)")
    service.add_argument(
        "--port", type=_port, default=8642,
        help="bind port for 'serve'; 0 picks a free port "
             "(default: 8642)")
    service.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead journal file for 'serve'; if it already has "
             "records the service recovers from it before serving")
    service.add_argument(
        "--tick-interval", type=_tick_seconds, default=0.1,
        metavar="SECONDS",
        help="real-time seconds per chronon for 'serve'; 0 runs "
             "unpaced (default: 0.1)")
    service.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed for 'soak' (default: 0)")
    return parser


def _stats(scale: str):
    """Structural statistics of one baseline instance."""
    from repro.analysis import compute_stats
    from repro.experiments import baseline, make_instance

    config = baseline(scale)
    _trace, profiles = make_instance(config, 0)
    return compute_stats(profiles, config.epoch, config.budget_vector)


def _report(result_tables: list[Table], as_csv: bool,
            output: str | None) -> None:
    """Print a result's tables; with ``output``, also write them there."""
    for table in result_tables:
        if as_csv:
            print(f"# {table.title}")
            if table.note:
                print(f"# {table.note}")
            print(table.csv(), end="")
        else:
            print(table.text())
            print()
    if output:
        written = write_tables(result_tables, output)
        print(f"[wrote {len(written)} files under {output}]")


def _serve(args) -> int:
    """Stand up the async HTTP/SSE proxy service on a demo workload."""
    import asyncio
    from pathlib import Path

    from repro.core.budget import BudgetVector
    from repro.core.timeline import Epoch
    from repro.faults.breaker import CircuitBreaker, RetryConfig
    from repro.online import MRSFPolicy
    from repro.runtime.aio import (
        AdmissionController,
        AsyncMonitoringProxy,
        Journal,
        ProxyService,
    )
    from repro.runtime.server import OriginServer
    from repro.traces.models import PoissonUpdateModel

    length, resources, budget = {
        "smoke": (60, 8, 2), "default": (600, 32, 4),
        "paper": (3000, 64, 8)}[args.scale]
    epoch = Epoch(length)
    trace = PoissonUpdateModel(8.0, seed=args.seed).generate(
        range(resources), epoch)
    server = OriginServer(trace)
    knobs = dict(retry=RetryConfig(), breaker=CircuitBreaker(),
                 deadline=1.0, hedge_delay=0.05)
    path = Path(args.journal) if args.journal else None
    if path is not None and path.exists() and path.stat().st_size > 0:
        print(f"recovering from journal {path}")
        proxy = AsyncMonitoringProxy.recover(
            path, server, epoch, BudgetVector(budget), MRSFPolicy(),
            **knobs)
    else:
        proxy = AsyncMonitoringProxy(
            server, epoch, BudgetVector(budget), MRSFPolicy(),
            journal=Journal(path) if path is not None else None, **knobs)
    admission = AdmissionController(max_tintervals=resources * 8,
                                    max_profiles_per_client=64)
    service = ProxyService(proxy, admission,
                           host=args.host, port=args.port)

    async def serve() -> None:
        host, port = await service.start()
        print(f"serving on http://{host}:{port} — epoch of {epoch.last} "
              f"chronons at {args.tick_interval}s per chronon "
              f"(clock at {proxy.clock})")
        try:
            await service.serve_epoch(
                tick_interval=args.tick_interval)
            print(f"epoch complete: {proxy.stats()}")
        finally:
            await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; journal (if any) is replayable")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "serve":
        return _serve(args)
    if args.experiment == "soak":
        from repro.runtime.aio.chaos import main as chaos_main
        chaos_args = ["--seed", str(args.seed)]
        if args.scale == "smoke":
            chaos_args.append("--smoke")
        return chaos_main(chaos_args)
    if args.experiment == "bench-report":
        from repro.bench_report import main as bench_report_main
        return bench_report_main([])
    from repro.experiments.instances import configure_instances
    configure_instances(cache_dir=args.cache_dir)
    names = sorted(_EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        if name == "stats":
            result = _stats(args.scale)
        else:
            kwargs = {}
            if args.workers:
                kwargs["workers"] = args.workers
            if args.engine and name in _TAKES_ENGINE:
                kwargs["engine"] = args.engine
            result = _runner(name)(args.scale, **kwargs)
        _report(tables(name, result), args.csv, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
