"""Exact offline solver by schedule enumeration (Lemma 1).

The paper shows Problem 1 is solvable by full enumeration of feasible
schedules in ``O(n^(K * C_max))`` time — polynomial in ``n`` but
prohibitive for realistic ``K``. This module implements that enumeration
as a memoized depth-first search over chronons, usable (and used in tests)
as ground truth on tiny instances.

Key observations that keep the search sound and as small as possible:

* capture state is monotone — probing more resources never hurts — so at
  every chronon it suffices to branch over subsets of *useful* resources
  (those with an active uncaptured EI) of size exactly
  ``min(C_j, #useful)``;
* the value function depends only on ``(chronon, captured-EI set)``, so
  results are memoized on that pair; the captured set is an integer
  bitmask (Python's arbitrary-precision ints carry instances well past
  the 63-EI machine-word limit), with the per-chronon mask of each
  resource's active EIs precomputed once so expanding a probe subset is
  a handful of OR operations;
* the capture gain of a transition is found incrementally: only
  t-intervals owning a *newly set* EI bit can have just reached their
  ``need``, so the gain check touches those instead of rescanning every
  t-interval;
* chronons with no useful resource are skipped outright.

A node-count guard raises :class:`SolverCapacityError` instead of silently
burning hours, honoring the Lemma-1 warning; guard messages carry the
instance dimensions (``n``, ``K``, ``C_max``, #EIs) so oversized runs are
diagnosable from the error alone.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterator

from repro.core.budget import BudgetVector
from repro.core.completeness import evaluate_schedule
from repro.core.errors import SolverCapacityError
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule
from repro.core.timeline import Epoch
from repro.simulation.result import SimulationResult

__all__ = ["EnumerationSolver"]

#: Hard cap on total EI count. Bitmask states are arbitrary-precision
#: integers, so this is a memo-size safeguard, not a word-size limit.
MAX_EIS = 128


class EnumerationSolver:
    """Optimal schedules for tiny instances via memoized enumeration.

    Parameters
    ----------
    node_limit:
        Maximum number of DFS nodes to expand before raising
        :class:`SolverCapacityError` (default 2 million).
    """

    def __init__(self, node_limit: int = 2_000_000) -> None:
        if node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {node_limit}")
        self._node_limit = node_limit

    def solve(self, profiles: ProfileSet, epoch: Epoch,
              budget: BudgetVector) -> SimulationResult:
        """Compute an optimal schedule, maximizing captured t-intervals.

        Raises
        ------
        SolverCapacityError
            When the instance exceeds :data:`MAX_EIS` execution intervals
            or the search exceeds the configured node limit.
        """
        started = time.perf_counter()

        # Flatten EIs with global indexes; group t-interval membership.
        eis: list[tuple[int, int, int]] = []  # (resource, start, finish)
        tinterval_members: list[list[int]] = []
        needs: list[int] = []
        for eta in profiles.tintervals():
            needs.append(eta.need)
            members = []
            for ei in eta:
                members.append(len(eis))
                eis.append((ei.resource_id, ei.start, ei.finish))
            tinterval_members.append(members)

        dims = (f"n={profiles.total_tintervals} t-intervals, "
                f"K={len(epoch)} chronons, "
                f"C_max={budget.max_over(epoch)}, {len(eis)} EIs")
        if len(eis) > MAX_EIS:
            raise SolverCapacityError(
                f"enumeration supports at most {MAX_EIS} EIs ({dims})"
            )

        # Per chronon, per resource: bitmask of that resource's active EIs.
        res_masks_at: dict[int, dict[int, int]] = {}
        for index, (resource, start, finish) in enumerate(eis):
            for chronon in range(max(1, start),
                                 min(epoch.last, finish) + 1):
                per_res = res_masks_at.setdefault(chronon, {})
                per_res[resource] = per_res.get(resource, 0) | (1 << index)
        interesting = sorted(res_masks_at)

        full_masks = [self._mask(members) for members in tinterval_members]
        # EI index -> t-intervals containing it (for incremental gains).
        ei_owners: list[list[int]] = [[] for _ in eis]
        for t_index, members in enumerate(tinterval_members):
            for member in members:
                ei_owners[member].append(t_index)

        def gained_by(mask: int, new_mask: int) -> int:
            """T-intervals with ``need`` EIs in ``new_mask`` but not in
            ``mask``.

            Only owners of a newly-set EI bit can have just reached
            their need, so walk the fresh bits instead of every
            t-interval.
            """
            fresh = new_mask & ~mask
            gained = 0
            seen: set[int] = set()
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                for owner in ei_owners[bit.bit_length() - 1]:
                    if owner not in seen:
                        seen.add(owner)
                        full = full_masks[owner]
                        if ((new_mask & full).bit_count() >= needs[owner]
                                > (mask & full).bit_count()):
                            gained += 1
            return gained

        def expansions(chronon: int,
                       mask: int) -> Iterator[tuple[tuple[int, ...], int]]:
            """Yield ``(probed resources, new mask)`` per branch choice.

            Branches over subsets of useful resources (deterministic
            sorted order) of size exactly ``min(C_j, #useful)``; an empty
            yield means the chronon offers nothing to probe.
            """
            per_res = res_masks_at[chronon]
            useful = [resource for resource in sorted(per_res)
                      if per_res[resource] & ~mask]
            capacity = min(budget.at(chronon), len(useful))
            if capacity == 0:
                return
            for subset in combinations(useful, capacity):
                new_mask = mask
                for resource in subset:
                    new_mask |= per_res[resource]
                yield subset, new_mask

        memo: dict[tuple[int, int], int] = {}
        nodes = 0

        def search(position: int, mask: int) -> int:
            nonlocal nodes
            if position >= len(interesting):
                return 0
            key = (position, mask)
            hit = memo.get(key)
            if hit is not None:
                return hit
            nodes += 1
            if nodes > self._node_limit:
                raise SolverCapacityError(
                    f"enumeration exceeded {self._node_limit} nodes ({dims})"
                )
            chronon = interesting[position]
            best = 0
            branched = False
            for _subset, new_mask in expansions(chronon, mask):
                branched = True
                gained = gained_by(mask, new_mask)
                best = max(best, gained + search(position + 1, new_mask))
            if not branched:
                best = search(position + 1, mask)
            memo[key] = best
            return best

        best_value = search(0, 0)
        schedule = self._reconstruct(interesting, expansions, gained_by,
                                     memo)
        runtime = time.perf_counter() - started
        report = evaluate_schedule(profiles, schedule)
        return SimulationResult(
            label="offline-enumeration",
            schedule=schedule,
            report=report,
            probes_used=len(schedule),
            runtime_seconds=runtime,
            extras={"dfs_nodes": float(nodes),
                    "optimal_value": float(best_value)},
        )

    @staticmethod
    def _mask(members: list[int]) -> int:
        mask = 0
        for index in members:
            mask |= 1 << index
        return mask

    @staticmethod
    def _reconstruct(interesting: list[int], expansions, gained_by,
                     memo: dict[tuple[int, int], int]) -> Schedule:
        """Walk the memo table again, re-deriving one optimal schedule."""
        schedule = Schedule()
        mask = 0
        for position, chronon in enumerate(interesting):
            target = memo.get((position, mask))
            if target is None:
                # Unvisited state (can happen only past the optimum path).
                break
            chosen: tuple[int, ...] | None = None
            chosen_mask = mask
            for subset, new_mask in expansions(chronon, mask):
                gained = gained_by(mask, new_mask)
                tail = memo.get((position + 1, new_mask), 0)
                if gained + tail == target:
                    chosen = subset
                    chosen_mask = new_mask
                    break
            if chosen is None:
                continue
            for resource_id in chosen:
                schedule.add_probe(resource_id, chronon)
            mask = chosen_mask
        return schedule
