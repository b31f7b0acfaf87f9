"""Command-line entry point: ``repro-experiments``.

Runs any of the paper's tables/figures and prints the series as ASCII
tables (optionally CSV). Examples::

    repro-experiments table1 --scale default
    repro-experiments fig4 --scale paper
    repro-experiments all --scale smoke --csv
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from repro.experiments.reporting import render_table, sweep_csv, sweep_table

if TYPE_CHECKING:  # annotations only: runners are imported on dispatch
    from repro.experiments.churn import ChurnSweep
    from repro.experiments.federation import FederationSweep
    from repro.experiments.harness import RunOutcome, SweepResult

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
    "federation": "repro.experiments.federation:federation_sweep",
    "offline": "repro.experiments.offline:offline_comparison",
}

#: The experiments whose runner takes ``workers=`` / ``engine=``
#: (``tests/experiments/test_cli.py`` holds both to the signatures).
_TAKES_WORKERS = frozenset(_EXPERIMENTS) - {"federation"}
_TAKES_ENGINE = _TAKES_WORKERS - {"offline"}


def _runner(name: str):
    """Import and return the function behind an experiment name."""
    module, _, function = _EXPERIMENTS[name].partition(":")
    return getattr(import_module(module), function)


def _print_served_by(result: RunOutcome | SweepResult) -> None:
    # 'offline' runs solvers only: no engine, no header.
    if result.engine:
        print(f"# engine={result.engine} fell_back={result.fell_back} "
              f"blocks={result.blocks}")


def _print_run_outcome(name: str, outcome: RunOutcome, as_csv: bool) -> None:
    rows = [
        [label, policy_outcome.mean_gc, policy_outcome.stdev_gc,
         "" if outcome.shared_block else policy_outcome.mean_runtime]
        for label, policy_outcome in outcome.outcomes.items()
    ]
    if as_csv:
        print(f"# {name}")
        _print_served_by(outcome)
        print("policy,mean_gc,stdev_gc,mean_runtime_s")
        for label, gc, stdev, runtime in rows:
            timing = runtime if runtime == "" else f"{runtime:.6f}"
            print(f"{label},{gc:.6f},{stdev:.6f},{timing}")
        return
    _print_served_by(outcome)
    print(render_table(
        ["policy", "mean GC", "stdev", "runtime (s)"], rows, title=name))
    print()
    print(render_table(
        ["parameter", "value"], outcome.config.describe(),
        title=f"{name} — configuration"))


def _print_sweep(result: SweepResult, as_csv: bool,
                 metrics: tuple[str, ...] = ("gc",)) -> None:
    for metric in metrics:
        if as_csv:
            print(f"# {result.name} ({metric})")
            _print_served_by(result)
            print(sweep_csv(result, metric=metric), end="")
        else:
            _print_served_by(result)
            print(sweep_table(result, metric=metric))
            print()


def _print_federation(result: FederationSweep, as_csv: bool) -> None:
    rows = [
        ["monolith", result.monolith.mean_gc, 0.0,
         result.monolith.mean_runtime, 1.0, 0, 0],
    ]
    for outcome in result.outcomes:
        rows.append([
            f"K={outcome.shards}", outcome.mean_gc,
            result.degradation(outcome.shards), outcome.mean_runtime,
            result.speedup(outcome.shards), outcome.stolen_budget,
            outcome.steal_transfers,
        ])
    if as_csv:
        print(f"# federation ({result.policy})")
        print("setting,mean_gc,gc_degradation,mean_runtime_s,speedup,"
              "stolen_budget,steal_transfers")
        for label, gc, deg, runtime, speedup, stolen, moves in rows:
            print(f"{label},{gc:.6f},{deg:.6f},{runtime:.6f},"
                  f"{speedup:.3f},{stolen},{moves}")
        print(f"lowering,,,{result.mean_lower:.6f},,,")
        return
    # The shared columnar build, which no runtime above includes (each
    # run's own activity windows are inside its runtime).
    rows.append(["lowering", "", "", result.mean_lower, "", "", ""])
    print(render_table(
        ["setting", "mean GC", "GC degradation", "runtime (s)",
         "speedup", "stolen budget", "transfers"], rows,
        title=f"federation — {result.policy}"))
    print()
    load_rows = [
        [f"K={outcome.shards} shard {load.shard}", load.resources,
         load.probes_routed, load.nominal_budget, load.stolen_in,
         load.stolen_out]
        for outcome in result.outcomes if outcome.shards > 1
        for load in outcome.loads
    ]
    if load_rows:
        print(render_table(
            ["shard", "resources", "probes routed", "nominal budget",
             "stolen in", "stolen out"], load_rows,
            title="federation — per-shard load"))
        print()
    print(render_table(
        ["parameter", "value"], result.config.describe(),
        title="federation — configuration"))


def _print_churn(result: ChurnSweep, as_csv: bool) -> None:
    rows = [
        [f"spread={row.join_spread:.1f}"
         + (f" leave={row.leave_probability:.1f}"
            if row.leave_probability else ""),
         row.completeness, row.mean_client_completeness, row.fairness,
         row.completed, row.expired, row.doomed_at_birth, row.dropped,
         row.probes_used, row.runtime_seconds]
        for row in result.rows
    ]
    if as_csv:
        print(f"# churn ({result.policy}, engine={result.engine})")
        print("scenario,completeness,mean_client_completeness,fairness,"
              "completed,expired,doomed_at_birth,dropped,probes_used,"
              "runtime_s")
        for (label, gc, mean_gc, fairness, completed, expired, doomed,
             dropped, probes, runtime) in rows:
            print(f"{label},{gc:.6f},{mean_gc:.6f},{fairness:.6f},"
                  f"{completed},{expired},{doomed},{dropped},{probes},"
                  f"{runtime:.6f}")
        return
    print(render_table(
        ["scenario", "completeness", "client mean", "fairness",
         "completed", "expired", "doomed at birth", "dropped", "probes",
         "runtime (s)"],
        rows, title=f"churn — {result.policy} "
                    f"(engine={result.engine})"))


def _print_result(name: str, result: object, as_csv: bool) -> None:
    # By class name: the result classes live in the experiment modules,
    # of which only the runner's own is imported.
    kind = type(result).__name__
    if kind == "ChurnSweep":
        _print_churn(result, as_csv)
    elif kind == "FederationSweep":
        _print_federation(result, as_csv)
    elif kind == "RunOutcome":
        _print_run_outcome(name, result, as_csv)
    elif kind == "SweepResult":
        metrics = ("gc", "runtime") if name in ("fig5", "offline") \
            and not result.shared_block else ("gc",)
        _print_sweep(result, as_csv, metrics=metrics)
    elif kind == "FigurePair":
        timed = name == "fig5" and not result.left.shared_block
        metrics = ("runtime",) if timed else ("gc",)
        _print_sweep(result.left, as_csv, metrics=metrics)
        _print_sweep(result.right, as_csv, metrics=metrics)
    else:  # pragma: no cover - defensive
        print(result)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
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
             "arrival spread and churn-out over a churn plan; "
             "'federation' sweeps proxy "
             "shard counts against the monolith engine; 'offline' "
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
        help="emit CSV series instead of ASCII tables",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run (setting, repetition) cells in a process pool of N "
             "workers (default: serial); results are identical to the "
             "serial path",
    )
    parser.add_argument(
        "--engine", choices=["batch", "solo", "reference"],
        default=None,
        help="what runs the online policy runs: 'batch' runs those "
             "sharing a generated instance as lanes of one columnar "
             "block, 'solo' each as a one-lane block of its own (per-"
             "policy runtimes; a churned run is always one lane), "
             "'reference' is the executable specification (for 'churn' "
             "the live proxy); results are identical, and 'federation' "
             "and 'offline' have no such run to re-route. Default: "
             "'batch' for the GC sweeps, 'solo' for the "
             "runtime-reporting table1, fig3 and fig5",
    )
    parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="also write CSV series and text tables into DIR",
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
        "--port", type=int, default=8642,
        help="bind port for 'serve'; 0 picks a free port "
             "(default: 8642)")
    service.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead journal file for 'serve'; if it already has "
             "records the service recovers from it before serving")
    service.add_argument(
        "--tick-interval", type=float, default=0.1, metavar="SECONDS",
        help="real-time seconds per chronon for 'serve' (default: 0.1)")
    service.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed for 'soak' (default: 0)")
    return parser


def _print_stats(scale: str) -> None:
    """Print structural statistics of one baseline instance."""
    from repro.analysis import compute_stats
    from repro.experiments import baseline, make_instance

    config = baseline(scale)
    _trace, profiles = make_instance(config, 0)
    stats = compute_stats(profiles, config.epoch, config.budget_vector)
    print(render_table(["statistic", "value"], stats.describe(),
                       title=f"Baseline instance statistics ({scale})"))


def _serve(args) -> int:
    """Stand up the async HTTP/SSE proxy service on a demo workload."""
    import asyncio
    from pathlib import Path

    from repro.core.budget import BudgetVector
    from repro.core.timeline import Epoch
    from repro.faults.breaker import BackoffPolicy, CircuitBreaker
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
    knobs = dict(backoff=BackoffPolicy(), breaker=CircuitBreaker(),
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
    if args.experiment == "stats":
        _print_stats(args.scale)
        return 0
    names = sorted(_EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        kwargs = {}
        if args.workers and name in _TAKES_WORKERS:
            kwargs["workers"] = args.workers
        if args.engine and name in _TAKES_ENGINE:
            kwargs["engine"] = args.engine
        result = _runner(name)(args.scale, **kwargs)
        _print_result(name, result, args.csv)
        if args.output:
            from repro.experiments.export import export_result
            written = export_result(name, result, args.output)
            print(f"[wrote {len(written)} files under {args.output}]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
