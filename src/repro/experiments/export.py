"""Exporting experiment results to files (CSV series + markdown summary).

The benchmark harness and CLI can persist every figure's series so that
EXPERIMENTS.md (and downstream analysis) works from files rather than
scraped terminal output.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.experiments.churn import ChurnSweep
from repro.experiments.federation import FederationSweep
from repro.experiments.figures import FigurePair
from repro.experiments.harness import RunOutcome, SweepResult
from repro.experiments.reporting import render_table, sweep_csv, sweep_table

__all__ = ["export_churn", "export_federation", "export_result",
           "export_run_outcome", "export_sweep"]


def export_churn(result: ChurnSweep, directory: str | Path,
                 stem: str) -> list[Path]:
    """Write the churn scenario series CSV plus a config dump."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["join_spread,leave_probability,completeness,"
             "mean_client_completeness,fairness,completed,expired,"
             "doomed_at_birth,dropped,probes_used,runtime_s"]
    for row in result.rows:
        lines.append(
            f"{row.join_spread:.2f},{row.leave_probability:.2f},"
            f"{row.completeness:.6f},"
            f"{row.mean_client_completeness:.6f},{row.fairness:.6f},"
            f"{row.completed},{row.expired},{row.doomed_at_birth},"
            f"{row.dropped},"
            f"{row.probes_used},{row.runtime_seconds:.6f}")
    csv_path = directory / f"{stem}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    config_path = directory / f"{stem}_config.txt"
    config_rows = [("engine", result.engine)] + [
        (field, str(value))
        for field, value in asdict(result.config).items()
        if field not in ("join_spread", "leave_probability")
    ]
    config_path.write_text(render_table(
        ["parameter", "value"], config_rows,
        title=f"{stem} configuration") + "\n")
    return [csv_path, config_path]


def export_federation(result: FederationSweep, directory: str | Path,
                      stem: str) -> list[Path]:
    """Write the shard-count series CSV plus a config dump."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["setting,mean_gc,gc_degradation,mean_runtime_s,speedup,"
             "stolen_budget,steal_transfers",
             f"monolith,{result.monolith.mean_gc:.6f},0.000000,"
             f"{result.monolith.mean_runtime:.6f},1.000,0,0"]
    for outcome in result.outcomes:
        lines.append(
            f"K={outcome.shards},{outcome.mean_gc:.6f},"
            f"{result.degradation(outcome.shards):.6f},"
            f"{outcome.mean_runtime:.6f},"
            f"{result.speedup(outcome.shards):.3f},"
            f"{outcome.stolen_budget},{outcome.steal_transfers}")
    csv_path = directory / f"{stem}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    config_path = directory / f"{stem}_config.txt"
    config_path.write_text(render_table(
        ["parameter", "value"], result.config.describe(),
        title=f"{stem} configuration") + "\n")
    return [csv_path, config_path]


def export_sweep(result: SweepResult, directory: str | Path,
                 stem: str, metrics: tuple[str, ...] = ("gc",)
                 ) -> list[Path]:
    """Write one CSV per metric plus a text table; returns written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for metric in metrics:
        csv_path = directory / f"{stem}_{metric}.csv"
        csv_path.write_text(sweep_csv(result, metric=metric))
        written.append(csv_path)
        table_path = directory / f"{stem}_{metric}.txt"
        table_path.write_text(sweep_table(result, metric=metric) + "\n")
        written.append(table_path)
    return written


def export_run_outcome(outcome: RunOutcome, directory: str | Path,
                       stem: str) -> list[Path]:
    """Write a policy-summary CSV + text table + config dump."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [
        [label, policy.mean_gc, policy.stdev_gc,
         "" if outcome.shared_block else policy.mean_runtime]
        for label, policy in outcome.outcomes.items()
    ]
    csv_lines = ["policy,mean_gc,stdev_gc,mean_runtime_s"]
    csv_lines += [f"{label},{gc:.6f},{stdev:.6f},"
                  + (runtime if runtime == "" else f"{runtime:.6f}")
                  for label, gc, stdev, runtime in rows]
    csv_path = directory / f"{stem}.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n")

    table_path = directory / f"{stem}.txt"
    table_path.write_text(render_table(
        ["policy", "mean GC", "stdev", "runtime (s)"], rows,
        title=stem) + "\n")

    config_path = directory / f"{stem}_config.txt"
    config_path.write_text(render_table(
        ["parameter", "value"], outcome.config.describe(),
        title=f"{stem} configuration") + "\n")
    return [csv_path, table_path, config_path]


def export_result(name: str, result: object,
                  directory: str | Path) -> list[Path]:
    """Dispatch on the result type (RunOutcome / SweepResult / pair)."""
    if isinstance(result, ChurnSweep):
        return export_churn(result, directory, name)
    if isinstance(result, FederationSweep):
        return export_federation(result, directory, name)
    if isinstance(result, RunOutcome):
        return export_run_outcome(result, directory, name)
    if isinstance(result, SweepResult):
        metrics = ("gc",) if result.shared_block else ("gc", "runtime")
        return export_sweep(result, directory, name, metrics=metrics)
    if isinstance(result, FigurePair):
        metrics = ("gc",) if result.left.shared_block else ("gc", "runtime")
        written = export_sweep(result.left, directory, f"{name}_panel1",
                               metrics=metrics)
        written += export_sweep(result.right, directory, f"{name}_panel2",
                                metrics=metrics)
        return written
    raise TypeError(f"cannot export result of type {type(result)!r}")
