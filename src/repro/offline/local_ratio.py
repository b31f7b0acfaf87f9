"""Offline approximation via the (fractional) Local-Ratio scheme.

Section 4.1.2: the paper adopts Bar-Yehuda et al.'s Local-Ratio algorithm
for scheduling split intervals (t-intervals), which guarantees a
``2k``-approximation on ``P^[1]`` inputs with ``C_max = 1`` (``2k + 1`` for
``C_max > 1``) and, lifted through Proposition 2, ``2k + 2`` /
``2k + 3``-approximations on general inputs.

Implementation outline (fractional local ratio, LP solved once):

1. **Filter** self-infeasible t-intervals (need more simultaneous probes
   than the budget allows).
2. **Fractional guidance** ``x*``: for ``P^[1]`` inputs we solve the LP
   relaxation ``max sum x_eta`` s.t. per chronon
   ``sum_eta load_eta(j) * x_eta <= C_j``, where ``load_eta(j)`` counts the
   distinct resources ``eta`` needs at ``j``. For general inputs the
   window-smeared density ``sum_{EI active at j} 1/width(EI)`` is used
   (guidance only — the formal ratio is stated for ``P^[1]``, matching the
   setting the paper evaluates the approximation in, cf. §5.3). The
   solved ``x*`` is quantized to integers (scaled by ``2**20``) so the
   decomposition below manipulates exact arithmetic — identical argmin
   selections regardless of summation order. Past ``MAX_LP_VARIABLES``
   t-intervals the LP is skipped and every guidance weight is equal.
3. **Weight decomposition**: repeatedly pick the remaining t-interval
   minimizing ``(x*-mass of its closed neighborhood, latest finish, key)``
   in the conflict graph, subtract its weight from that neighborhood, and
   push it on a stack — the classic local-ratio round.
4. **Unwind** in reverse stack order, greedily accepting every t-interval
   that stays *jointly schedulable* with the accepted set; schedulability
   and the final probe schedule come from incremental bipartite matching
   (:class:`repro.offline.matching.ProbeAssigner`).

The specification of steps 1, 3 and 4 — the conflict relations pair by
pair, the full-rescan decomposition and a from-scratch Kuhn check — is
``tests/offline/oracle.py``; ``tests/properties/test_prop_offline_fast.py``
checks this pipeline against it on every instance it draws. Step 1 builds
sweep-line adjacency dictionaries
(:func:`repro.offline.conflict.unit_conflict_adjacency` /
:func:`~repro.offline.conflict.overlap_adjacency`) and step 3 keeps the
neighborhood masses in a lazy min-heap with stale-entry invalidation
(``O(deg log m)`` per round).

Gained completeness is evaluated against the produced schedule, so any
free-rider captures (shared probes) are credited.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.completeness import evaluate_schedule, tally
from repro.core.intervals import TInterval
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.offline.conflict import (
    Adjacency,
    demand_map,
    overlap_adjacency,
    unit_conflict_adjacency,
)
from repro.offline.matching import ProbeAssigner, require_every_ei
from repro.simulation.result import SimulationResult

__all__ = ["LocalRatioApproximation", "fractional_guidance"]

TKey = tuple[int, int]

#: Fixed-point scale for guidance weights: LP solutions in ``[0, 1]`` map
#: to integers in ``[0, 2**20]``, making neighborhood-mass comparisons
#: exact (and therefore independent of summation order).
GUIDANCE_SCALE = 1 << 20

#: Largest LP the guidance solves; beyond it every t-interval gets the
#: same weight (plain, non-fractional local ratio).
MAX_LP_VARIABLES = 50_000


class LocalRatioApproximation:
    """The paper's offline approximation (Local-Ratio + matching)."""

    def solve(self, profiles: ProfileSet, epoch: Epoch,
              budget: BudgetVector) -> SimulationResult:
        """Produce an approximate schedule and its completeness report.

        Raises :class:`~repro.core.errors.ModelError` for a t-interval
        that needs fewer than all its EIs."""
        require_every_ei(profiles.tintervals(), "Local-Ratio")
        # The first LP guidance loads scipy (~0.6 s): before the clock
        # starts, so no reported runtime contains an import.
        import scipy.optimize  # noqa: F401
        started = time.perf_counter()

        is_unit = profiles.is_unit_width
        if is_unit:
            etas, adjacency = unit_conflict_adjacency(profiles, budget)
        else:
            etas, adjacency = overlap_adjacency(profiles, budget)
        keys: list[TKey] = sorted(adjacency)

        # One demand-map lookup per t-interval (the lru cache makes
        # repeats cheap, but hashing EI tuples is not free on hot paths).
        demands = ({key: demand_map(etas[key]) for key in keys}
                   if is_unit else {})
        guidance = fractional_guidance(
            keys, etas, epoch, budget, is_unit, demands)
        stack = decompose(keys, etas, adjacency, guidance)

        assigner = ProbeAssigner(epoch, budget)
        accepted: list[TKey] = []
        accepted_set: set[TKey] = set()
        for key in reversed(stack):
            if assigner.try_add(etas[key]):
                accepted.append(key)
                accepted_set.add(key)

        # Greedy completion: t-intervals whose weight was zeroed without
        # being pushed never reached the stack; trying them afterwards can
        # only grow the solution (feasibility is checked exactly), so the
        # local-ratio guarantee is preserved while practical completeness
        # improves. Order favors cheap, urgent t-intervals.
        leftovers = sorted(
            (key for key in keys if key not in accepted_set),
            key=lambda key: (etas[key].size, etas[key].latest_finish, key),
        )
        for key in leftovers:
            if assigner.try_add(etas[key]):
                accepted.append(key)
                accepted_set.add(key)

        schedule = assigner.schedule()
        runtime = time.perf_counter() - started

        # Paper-faithful accounting: the Local-Ratio scheme's completeness
        # is the size of the accepted (independent, schedulable) set — the
        # algorithm does not track captures its probes produce "for free"
        # on non-accepted t-intervals. Free-rider-credited completeness is
        # reported in extras for comparison.
        report = tally(profiles, lambda eta: (
            eta.profile_id, eta.tinterval_id) in accepted_set)
        with_free_riders = evaluate_schedule(profiles, schedule)
        return SimulationResult(
            label="offline-approx",
            schedule=schedule,
            report=report,
            probes_used=len(schedule),
            runtime_seconds=runtime,
            extras={
                "accepted": float(len(accepted)),
                "candidates": float(len(keys)),
                "unit_width_input": 1.0 if is_unit else 0.0,
                "gc_with_free_riders": with_free_riders.gc,
            },
        )


# ----------------------------------------------------------------------
# Step 2: fractional guidance
# ----------------------------------------------------------------------


def fractional_guidance(
        keys: list[TKey], etas: dict[TKey, TInterval],
        epoch: Epoch, budget: BudgetVector, is_unit: bool,
        demands: dict[TKey, dict[int, frozenset[int]]],
) -> dict[TKey, int]:
    """Quantized LP guidance: ``key -> x*_key * GUIDANCE_SCALE``.

    The constraint matrix is assembled straight into COO triplet
    arrays (one ``(row, col, load)`` per nonzero) and handed to
    scipy as CSR; rows follow the first appearance of each chronon in
    ``keys`` order, so the solver's chosen optimal vertex depends only
    on the instance.
    """
    if not keys:
        return {}
    if len(keys) > MAX_LP_VARIABLES:
        return {key: GUIDANCE_SCALE for key in keys}
    # Loaded on first use: no online path needs scipy, so ``import
    # repro`` does not pay for it.
    from scipy import sparse
    from scipy.optimize import linprog

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    capacities: list[float] = []
    chronon_rows: dict[int, int] = {}

    def row_for(chronon: int) -> int:
        existing = chronon_rows.get(chronon)
        if existing is None:
            existing = len(capacities)
            chronon_rows[chronon] = existing
            capacities.append(float(budget.at(chronon)))
        return existing

    for column, key in enumerate(keys):
        eta = etas[key]
        if is_unit:
            for chronon, resources in sorted(
                    demands[key].items()):
                rows.append(row_for(chronon))
                cols.append(column)
                vals.append(float(len(resources)))
        else:
            loads: dict[int, float] = {}
            for ei in eta:
                smear = 1.0 / ei.width
                for chronon in range(max(1, ei.start),
                                     min(epoch.last, ei.finish) + 1):
                    loads[chronon] = loads.get(chronon, 0.0) + smear
            for chronon in sorted(loads):
                rows.append(row_for(chronon))
                cols.append(column)
                vals.append(loads[chronon])

    if not capacities:
        return {key: GUIDANCE_SCALE for key in keys}
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(capacities), len(keys)))
    result = linprog(
        c=-np.ones(len(keys)),  # maximize sum x
        A_ub=matrix,
        b_ub=np.array(capacities),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.x is None:
        return {key: GUIDANCE_SCALE for key in keys}
    quantized = np.rint(np.asarray(result.x) * GUIDANCE_SCALE)
    return {key: max(0, int(quantized[column]))
            for column, key in enumerate(keys)}


# ----------------------------------------------------------------------
# Step 3: local-ratio weight decomposition
# ----------------------------------------------------------------------

#: Initial (integer) local-ratio weight of every t-interval.
_INITIAL_WEIGHT = 1 << 20


def decompose(keys: list[TKey], etas: dict[TKey, TInterval],
              adjacency: Adjacency,
              guidance: dict[TKey, int]) -> list[TKey]:
    """The local-ratio stack, first-pushed first.

    Each round chooses the remaining key minimizing ``(mass,
    latest_finish, key)``, where ``mass`` is the integer guidance of the
    key plus its still-remaining neighbors. The chosen key's weight is
    subtracted from its closed remaining neighborhood; keys at weight
    ``<= 0`` leave ``remaining``.

    ``mass[key]`` is maintained incrementally — when a key leaves
    ``remaining``, its guidance is subtracted from every remaining
    neighbor's mass and a fresh heap entry is pushed for each (the dirty
    ones). A popped entry whose stored mass no longer matches the
    current mass is stale and skipped, so the heap top is always the
    true ``(mass, finish, key)`` argmin: the masses are exact integers,
    so the result equals a full rescan every round.
    """
    remaining = set(keys)
    weights = {key: _INITIAL_WEIGHT for key in keys}
    finishes = {key: etas[key].latest_finish for key in keys}
    mass = {
        key: guidance[key] + sum(guidance[neighbor]
                                 for neighbor in adjacency[key])
        for key in keys
    }
    heap = [(mass[key], finishes[key], key) for key in keys]
    heapq.heapify(heap)
    stack: list[TKey] = []

    def retire(key: TKey) -> None:
        """Remove a key from play, dirtying its neighbors' masses."""
        remaining.discard(key)
        shed = guidance[key]
        for neighbor in adjacency[key]:
            if neighbor in remaining:
                if shed:
                    updated = mass[neighbor] - shed
                    mass[neighbor] = updated
                    heapq.heappush(
                        heap, (updated, finishes[neighbor], neighbor))

    while remaining:
        entry_mass, _finish, chosen = heapq.heappop(heap)
        if chosen not in remaining or entry_mass != mass[chosen]:
            continue  # stale (retired key or superseded dirty entry)
        epsilon = weights[chosen]
        stack.append(chosen)
        weights[chosen] = 0
        retire(chosen)
        for neighbor in adjacency[chosen]:
            if neighbor in remaining:
                weights[neighbor] -= epsilon
                if weights[neighbor] <= 0:
                    retire(neighbor)
    return stack
