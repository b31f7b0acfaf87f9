"""Every experiment result as tables: the one place a result becomes rows.

:func:`tables` turns a result into :class:`Table` s (file stem, title,
headers, rows and the ``engine=… fell_back=… blocks=…`` note of the
engine that served it); :meth:`Table.text` and :meth:`Table.csv` are the
two renderings. The CLI prints them and ``--output`` writes
``<stem>.csv`` and ``<stem>.txt`` per table (:func:`write_tables`), so
what a terminal shows and what a file holds cannot drift apart.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

__all__ = ["Table", "render_table", "tables", "write_tables"]


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table with padded columns.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    """
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header.ljust(width)
                            for header, width in zip(headers, widths))
                 .rstrip())
    lines.append("-+-".join("-" * width for width in widths))
    for row in text_rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths))
                     .rstrip())
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


@dataclass(frozen=True)
class Table:
    """One table of a result; ``note`` is empty when no engine served it."""

    stem: str
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    note: str = ""

    def text(self) -> str:
        """The ASCII table, below a ``# note`` line when there is a note."""
        table = render_table(self.headers, self.rows, title=self.title)
        return f"# {self.note}\n{table}" if self.note else table

    def csv(self) -> str:
        """The header row and the data rows as CSV (floats to 6 places)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(
            [f"{cell:.6f}" if isinstance(cell, float) else cell
             for cell in row] for row in self.rows)
        return buffer.getvalue()


def write_tables(result_tables: Sequence[Table],
                 directory: str | Path) -> list[Path]:
    """Write ``<stem>.csv`` and ``<stem>.txt`` per table; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in result_tables:
        csv_path = directory / f"{table.stem}.csv"
        csv_path.write_text(table.csv())
        text_path = directory / f"{table.stem}.txt"
        text_path.write_text(table.text() + "\n")
        paths += [csv_path, text_path]
    return paths


def _served_by(result) -> str:
    # 'offline' runs solvers only: no engine, no note.
    if not result.engine:
        return ""
    return (f"engine={result.engine} fell_back={result.fell_back} "
            f"blocks={result.blocks}")


def _config(stem: str, rows: Sequence[Sequence[object]]) -> Table:
    return Table(f"{stem}_config", f"{stem} — configuration",
                 ["parameter", "value"], rows)


_METRIC_TITLES = {"gc": "gained completeness", "runtime": "runtime (s)"}


def _sweep(stem: str, sweep) -> list[Table]:
    # A shared block's runtimes are even splits of its wall time, not
    # per-policy timings: a runtime series only when each run was timed.
    metrics = ("gc",) if sweep.shared_block else ("gc", "runtime")
    labels = sweep.labels()
    return [
        Table(f"{stem}_{metric}",
              f"{sweep.name} — {_METRIC_TITLES[metric]}",
              [sweep.parameter, *labels],
              [[x_value, *values] for x_value, *values in zip(
                  sweep.x_values,
                  *(sweep.series(label, metric) for label in labels))],
              _served_by(sweep))
        for metric in metrics]


def _pair(stem: str, pair) -> list[Table]:
    return _sweep(f"{stem}_panel1", pair.left) + \
        _sweep(f"{stem}_panel2", pair.right)


def _run_outcome(stem: str, outcome) -> list[Table]:
    # The runtime column stays, blank, under a shared block (see _sweep).
    rows = [[label, policy.mean_gc, policy.stdev_gc,
             "" if outcome.shared_block else policy.mean_runtime]
            for label, policy in outcome.outcomes.items()]
    return [Table(stem, stem,
                  ["policy", "mean_gc", "stdev_gc", "mean_runtime_s"],
                  rows, _served_by(outcome)),
            _config(stem, outcome.config.describe())]


def _churn(stem: str, result) -> list[Table]:
    rows = [[row.join_spread, row.leave_probability, row.completeness,
             row.mean_client_completeness, row.fairness, row.completed,
             row.expired, row.doomed_at_birth, row.dropped,
             row.probes_used, row.runtime_seconds]
            for row in result.rows]
    swept = ("join_spread", "leave_probability")
    return [Table(stem, f"{stem} — {result.policy} (engine={result.engine})",
                  [*swept, "completeness", "mean_client_completeness",
                   "fairness", "completed", "expired", "doomed_at_birth",
                   "dropped", "probes_used", "runtime_s"], rows),
            _config(stem, [(field, str(value)) for field, value
                           in asdict(result.config).items()
                           if field not in swept])]


def _stats(stem: str, stats) -> list[Table]:
    return [Table(stem, "Baseline instance statistics",
                  ["statistic", "value"], stats.describe())]


#: By class name: the result classes live in the experiment modules, of
#: which only the runner's own is imported.
_TABLES = {
    "SweepResult": _sweep,
    "FigurePair": _pair,
    "RunOutcome": _run_outcome,
    "ChurnSweep": _churn,
    "InstanceStats": _stats,
}


def tables(name: str, result: object) -> list[Table]:
    """The tables experiment ``name``'s result renders as, in order."""
    kind = type(result).__name__
    if kind not in _TABLES:
        raise TypeError(f"no tables for a {kind} result")
    return _TABLES[kind](name, result)
