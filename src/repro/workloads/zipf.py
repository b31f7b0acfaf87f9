"""Bounded Zipf sampling used by the profile generator.

The paper's generator (Section 5.1) uses two Zipf distributions:

* ``Zipf(beta, k)`` over ranks ``1..k`` — *intra-user* preference: higher
  ``beta`` means users prefer simpler (lower-rank) profiles; ``beta = 0``
  is uniform.
* ``Zipf(alpha, n)`` over resources ``1..n`` — *inter-user* preference:
  higher ``alpha`` concentrates profiles on popular resources (the paper
  cites ``alpha = 1.37`` for Web feeds); ``alpha = 0`` is uniform.

numpy's ``zipf`` is unbounded, so we implement the bounded distribution
explicitly: ``P(i) ∝ 1 / i^theta`` over ``i in {1..size}``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BoundedZipf"]


class BoundedZipf:
    """Zipf distribution over ``{1, ..., size}`` with exponent ``theta``.

    A table, not a sampler: it holds the distribution and maps uniforms
    that the caller draws to values (:meth:`sample_from`,
    :meth:`sample_distinct_from`), so many streams can share one table.

    Parameters
    ----------
    theta:
        Skew exponent; ``0`` gives the uniform distribution. Must be >= 0.
    size:
        Support size; must be >= 1.
    """

    __slots__ = ("theta", "size", "_pmf", "cdf", "choice_cdf")

    def __init__(self, theta: float, size: int) -> None:
        if theta < 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.theta = theta
        self.size = size
        ranks = np.arange(1, size + 1, dtype=float)
        weights = ranks ** (-theta)
        self._pmf = weights / weights.sum()
        cdf = np.cumsum(self._pmf)
        #: The CDF the first round of a draw without replacement
        #: inverts: the one numpy's ``choice`` builds before anything is
        #: zeroed, a constant of the distribution (cumsum, then
        #: normalized: the same float operations).
        self.choice_cdf = cdf / cdf[-1]
        #: The CDF :meth:`sample_from` inverts (right insertion). Its
        #: last entry is pinned to 1.0: the cumulative sum can round just
        #: under it, and a uniform in that gap would invert past ``size``.
        cdf[-1] = 1.0
        self.cdf = cdf

    def pmf(self, value: int) -> float:
        """Probability of drawing ``value`` (1-based)."""
        if not 1 <= value <= self.size:
            return 0.0
        return float(self._pmf[value - 1])

    def sample_from(self, u: float) -> int:
        """Map a uniform in ``[0, 1)`` to a value (1-based): the inverse
        CDF, right insertion."""
        return int(np.searchsorted(self.cdf, u, side="right")) + 1

    def sample_distinct_from(self, count: int,
                             take_uniform) -> list[int]:
        """Weighted sampling without replacement from external uniforms.

        Replays ``Generator.choice(size, count, replace=False, p=pmf)``
        exactly: numpy's implementation repeatedly draws ``count -
        n_uniq`` uniforms, zeroes already-found entries, renormalizes the
        CDF and inverts it, keeping first occurrences. Feeding it
        uniforms from the same stream (``take_uniform(n)`` standing in
        for ``rng.random(n)``) therefore yields the same values in the
        same order as that call (plus one) —
        ``tests/workloads/oracle.py`` makes it.

        Raises
        ------
        ValueError
            If ``count`` exceeds the support size.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count > self.size:
            raise ValueError(
                f"cannot draw {count} distinct values from support of size "
                f"{self.size}"
            )
        if count == 0:
            return []
        draws = take_uniform(count)
        found_list = list(dict.fromkeys(np.searchsorted(
            self.choice_cdf, draws, side="right").tolist()))
        if len(found_list) == count:
            return [value + 1 for value in found_list]
        # Collision: fall back to the generic rejection loop, zeroing
        # already-found entries exactly as numpy's choice does.
        weights = self._pmf.copy()
        found = np.zeros(count, dtype=np.int64)
        found[0:len(found_list)] = found_list
        n_uniq = len(found_list)
        while n_uniq < count:
            draws = take_uniform(count - n_uniq)
            weights[found[0:n_uniq]] = 0
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            # Each value's first draw, in draw order.
            new = np.array(list(dict.fromkeys(
                cdf.searchsorted(draws, side="right").tolist())),
                dtype=np.int64)
            found[n_uniq:n_uniq + new.size] = new
            n_uniq += new.size
        return [int(value) + 1 for value in found]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundedZipf(theta={self.theta}, size={self.size})"
