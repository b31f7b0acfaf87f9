"""Order statistics shared by the runner, the load generator and compare.py.

Stdlib only: the parent process of the benchmark never imports numpy or
``repro``, so a broken checkout fails in the child, not in the reporter.
"""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["percentile", "quartiles", "summary", "best_quartile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Rank ``r = q/100 * (n-1)`` over the sorted sample; a fractional rank
    interpolates between its two neighbours (numpy's default rule).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the rule the acceptance check uses; a single value is its
    own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def best_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the good side: the 25th percentile of a
    lower-is-better metric, the 75th of a higher-is-better one.

    This is the value a run reports for a metric, in place of the
    median. On a shared host the noise is one-sided — a neighbour, a
    page-fault storm or a descheduled vCPU only ever adds time — and in
    a bad minute more than half of the repetitions are hit, which moves
    a median by tens of percent while the good quartile stays put. A
    change that makes the program slower moves every repetition, and
    with them this quartile.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    return percentile(values, 25.0 if better == "lower" else 75.0)


def summary(values: Sequence[float]) -> dict:
    """Sample count, median and quartiles of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}
