"""Data delivery schedules and capture indicators.

A schedule ``S`` assigns ``s_{i,j} = 1`` when resource ``r_i`` is probed at
chronon ``T_j`` (Section 3.2). We store the sparse probe set rather than the
dense ``n x K`` matrix — realistic budgets make schedules very sparse.

The module also implements the paper's capture indicators:

* ``I(I, S) = 1``   iff some probe of ``I``'s resource falls inside ``I``;
* ``I(eta, S) = 1`` iff ``need`` EIs of the t-interval are captured —
  every one of them unless the t-interval needs fewer.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.timeline import Chronon, Epoch

__all__ = ["Probe", "Schedule"]

# A probe is the pair (resource_id, chronon); kept as a plain tuple for
# speed in the simulator's inner loop.
Probe = tuple[int, Chronon]


class Schedule:
    """A sparse probing schedule.

    Parameters
    ----------
    probes:
        Initial ``(resource_id, chronon)`` pairs. Duplicates collapse.

    Notes
    -----
    Probe chronons are kept per resource as a set (O(1) duplicate checks)
    with a lazily rebuilt sorted view so that capture checks cost
    ``O(log #probes_on_resource)`` via bisection. A :meth:`from_columns`
    schedule builds those sets on the first call of any method but len.
    """

    __slots__ = ("_chronons", "_sorted_cache", "_count", "_columns")

    def __init__(self, probes: Iterable[Probe] = ()) -> None:
        self._chronons: dict[int, set[Chronon]] = {}
        self._sorted_cache: dict[int, list[Chronon]] = {}
        self._count = 0
        for resource_id, chronon in probes:
            self.add_probe(resource_id, chronon)

    @classmethod
    def from_columns(cls, resource_ids, chronons) -> "Schedule":
        """Adopt distinct probes as two equal-length integer arrays in
        chronon order, without validation (the block kernel emits each
        (resource, chronon) pair at most once per run, chronon by
        chronon, by construction).
        """
        schedule = cls.__new__(cls)
        schedule._sorted_cache = {}
        schedule._count = len(resource_ids)
        schedule._columns = (resource_ids, chronons)
        return schedule

    def __getattr__(self, name: str):
        # Only unset slots land here: an ungrouped schedule's _chronons.
        if name != "_chronons":
            raise AttributeError(name)
        grouped: dict[int, set[Chronon]] = {}
        for resource_id, chronon in zip(*(c.tolist() for c in self._columns)):
            grouped.setdefault(resource_id, set()).add(chronon)
        self._chronons = grouped
        del self._columns
        return grouped

    def add_probe(self, resource_id: int, chronon: Chronon) -> bool:
        """Record a probe; returns False when it was already present."""
        if resource_id < 0:
            raise ValueError(f"resource_id must be >= 0, got {resource_id}")
        if chronon < 1:
            raise ValueError(f"chronon must be >= 1, got {chronon}")
        chronons = self._chronons.setdefault(resource_id, set())
        if chronon in chronons:
            return False
        chronons.add(chronon)
        self._sorted_cache.pop(resource_id, None)
        self._count += 1
        return True

    def _sorted(self, resource_id: int) -> list[Chronon]:
        cached = self._sorted_cache.get(resource_id)
        if cached is None:
            cached = sorted(self._chronons.get(resource_id, ()))
            self._sorted_cache[resource_id] = cached
        return cached

    def __len__(self) -> int:
        """Total number of probes in the schedule."""
        return self._count

    def __contains__(self, probe: object) -> bool:
        if not isinstance(probe, tuple) or len(probe) != 2:
            return False
        resource_id, chronon = probe
        return chronon in self._chronons.get(resource_id, ())

    def probes(self) -> Iterator[Probe]:
        """Iterate all probes ordered by (chronon, resource)."""
        flat = [(chronon, resource_id)
                for resource_id, chronons in self._chronons.items()
                for chronon in chronons]
        flat.sort()
        for chronon, resource_id in flat:
            yield resource_id, chronon

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The probes as ``(resource_ids, chronons)`` int arrays in
        chronon order: a :meth:`from_columns` schedule's own arrays,
        with no per-resource sets built; otherwise :meth:`probes`'."""
        try:
            return self._columns
        except AttributeError:
            pairs = np.array(list(self.probes()), dtype=np.int64)
            return tuple(pairs.reshape(-1, 2).T.copy())

    def probes_at(self, chronon: Chronon) -> list[int]:
        """Resources probed at a given chronon (sorted by id)."""
        return sorted(resource_id
                      for resource_id, chronons in self._chronons.items()
                      if chronon in chronons)

    def probe_chronons(self, resource_id: int) -> list[Chronon]:
        """Sorted chronons at which ``resource_id`` is probed."""
        return list(self._sorted(resource_id))

    # ------------------------------------------------------------------
    # Capture indicators (paper Section 3.2)
    # ------------------------------------------------------------------

    def captures_ei(self, ei: ExecutionInterval) -> bool:
        """``I(I, S)``: does some probe fall inside the EI's window?"""
        chronons = self._sorted(ei.resource_id)
        index = bisect.bisect_left(chronons, ei.start)
        return index < len(chronons) and chronons[index] <= ei.finish

    def captures_tinterval(self, eta: TInterval) -> bool:
        """``I(eta, S)``: are ``eta.need`` of its EIs captured? Stops at
        the first miss the need cannot afford."""
        slack = len(eta.eis) - eta.need
        for ei in eta.eis:
            if not self.captures_ei(ei):
                slack -= 1
                if slack < 0:
                    return False
        return True

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------

    def respects_budget(self, budget: BudgetVector, epoch: Epoch) -> bool:
        """True when no chronon exceeds its budget and probes fit the epoch."""
        per_chronon: dict[Chronon, int] = {}
        for _resource_id, chronon in self.probes():
            if chronon not in epoch:
                return False
            per_chronon[chronon] = per_chronon.get(chronon, 0) + 1
        return all(count <= budget.at(chronon)
                   for chronon, count in per_chronon.items())

    def copy(self) -> "Schedule":
        """Deep copy of the schedule."""
        return Schedule(self.probes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(probes={self._count})"
