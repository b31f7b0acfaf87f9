"""Plain-text reporting: ASCII tables and CSV dumps for experiment output.

The benchmark harness prints the same rows/series the paper plots; these
helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotations only: rendering text needs no engine
    from repro.experiments.harness import SweepResult

__all__ = ["render_table", "sweep_table", "sweep_csv"]


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


def sweep_table(result: SweepResult, metric: str = "gc",
                labels: Sequence[str] | None = None) -> str:
    """One row per swept value, one column per policy."""
    labels = list(labels) if labels is not None else result.labels()
    headers = [result.parameter] + labels
    rows = []
    for index, x_value in enumerate(result.x_values):
        row: list[object] = [x_value]
        for label in labels:
            row.append(result.series(label, metric)[index])
        rows.append(row)
    suffix = "runtime (s)" if metric == "runtime" else "gained completeness"
    return render_table(headers, rows, title=f"{result.name} — {suffix}")


def sweep_csv(result: SweepResult, metric: str = "gc",
              labels: Sequence[str] | None = None) -> str:
    """The same series as CSV text (one header row, then data rows)."""
    labels = list(labels) if labels is not None else result.labels()
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([result.parameter] + labels)
    for index, x_value in enumerate(result.x_values):
        writer.writerow(
            [x_value] + [f"{result.series(label, metric)[index]:.6f}"
                         for label in labels])
    return buffer.getvalue()
