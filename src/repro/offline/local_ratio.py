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
   solved ``x*`` is quantized to integers (scaled by ``2**20``) so both
   decomposition engines below manipulate exact arithmetic — identical
   argmin selections regardless of summation order.
3. **Weight decomposition**: repeatedly pick the remaining t-interval
   minimizing ``(x*-mass of its closed neighborhood, latest finish, key)``
   in the conflict graph, subtract its weight from that neighborhood, and
   push it on a stack — the classic local-ratio round.
4. **Unwind** in reverse stack order, greedily accepting every t-interval
   that stays *jointly schedulable* with the accepted set; schedulability
   and the final probe schedule come from incremental bipartite matching
   (:class:`repro.offline.matching.ProbeAssigner`).

Two engines implement steps 1 and 3 (mirroring the online simulator's
fast/reference split):

* ``engine="reference"`` — networkx conflict graphs built pairwise and a
  per-round full rescan of the remaining t-intervals for the argmin: the
  executable specification, obviously correct and obviously slow;
* ``engine="fast"`` (default) — sweep-line adjacency dictionaries
  (:func:`repro.offline.conflict.unit_conflict_adjacency` /
  :func:`~repro.offline.conflict.overlap_adjacency`), incrementally
  maintained neighborhood masses in a lazy min-heap with stale-entry
  invalidation (``O(deg log m)`` per round), and the accelerated
  matcher mode.

Both engines produce the *identical* accepted t-interval set, probe
schedule, and gained completeness — proven per instance by the
property suite (``tests/properties/test_prop_offline_fast.py``).

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
    overlap_graph,
    self_infeasible,
    unit_conflict_adjacency,
    unit_conflict_graph,
)
from repro.offline.matching import ProbeAssigner, require_every_ei
from repro.simulation.result import SimulationResult

__all__ = ["LocalRatioApproximation", "fractional_guidance"]

TKey = tuple[int, int]

#: Fixed-point scale for guidance weights: LP solutions in ``[0, 1]`` map
#: to integers in ``[0, 2**20]``, making neighborhood-mass comparisons
#: exact (and therefore engine-independent).
GUIDANCE_SCALE = 1 << 20


class LocalRatioApproximation:
    """The paper's offline approximation (Local-Ratio + matching).

    Parameters
    ----------
    use_lp:
        Solve the guidance LP (default). When False — or when the LP
        exceeds ``max_lp_variables`` — uniform guidance is used instead,
        degrading gracefully to plain (non-fractional) local ratio.
    max_lp_variables:
        Cap on LP variable count before falling back to uniform guidance.
    engine:
        ``"fast"`` (default) for the indexed pipeline, ``"reference"``
        for the pairwise/rescan specification. Results are identical;
        only the wall time differs.
    """

    def __init__(self, use_lp: bool = True,
                 max_lp_variables: int = 50_000,
                 engine: str = "fast") -> None:
        if engine not in ("fast", "reference"):
            raise ValueError(
                f"unknown engine {engine!r}; choose 'fast' or 'reference'")
        self._use_lp = use_lp
        self._max_lp_variables = max_lp_variables
        self._engine = engine

    def solve(self, profiles: ProfileSet, epoch: Epoch,
              budget: BudgetVector) -> SimulationResult:
        """Produce an approximate schedule and its completeness report.

        Raises :class:`~repro.core.errors.ModelError` for a t-interval
        that needs fewer than all its EIs."""
        require_every_ei(profiles.tintervals(), "Local-Ratio")
        if self._use_lp:
            # The first LP guidance loads scipy (~0.6 s): before the
            # clock starts, so no reported runtime contains an import.
            import scipy.optimize  # noqa: F401
        started = time.perf_counter()
        fast = self._engine == "fast"

        is_unit = profiles.is_unit_width
        if fast:
            if is_unit:
                etas, adjacency = unit_conflict_adjacency(profiles, budget)
            else:
                etas, adjacency = overlap_adjacency(profiles, budget)
            keys: list[TKey] = sorted(adjacency)
        else:
            if is_unit:
                graph = unit_conflict_graph(profiles, budget)
            else:
                graph = overlap_graph(profiles)
                for eta in profiles.tintervals():
                    if self_infeasible(eta, budget):
                        key = (eta.profile_id, eta.tinterval_id)
                        if graph.has_node(key):
                            graph.remove_node(key)
            keys = sorted(graph.nodes)
            etas = {key: graph.nodes[key]["eta"] for key in keys}
            adjacency = {key: set(graph.neighbors(key)) for key in keys}

        # One demand-map lookup per t-interval (the lru cache makes
        # repeats cheap, but hashing EI tuples is not free on hot paths).
        demands = ({key: demand_map(etas[key]) for key in keys}
                   if is_unit else {})
        guidance = fractional_guidance(
            keys, etas, epoch, budget, is_unit, demands,
            use_lp=self._use_lp,
            max_lp_variables=self._max_lp_variables)

        if fast:
            stack = _decompose_fast(keys, etas, adjacency, guidance)
        else:
            stack = _decompose_reference(keys, etas, adjacency, guidance)

        assigner = ProbeAssigner(epoch, budget, fast=fast)
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
                "fast_engine": 1.0 if fast else 0.0,
            },
        )


# ----------------------------------------------------------------------
# Step 2: fractional guidance
# ----------------------------------------------------------------------


def fractional_guidance(
        keys: list[TKey], etas: dict[TKey, TInterval],
        epoch: Epoch, budget: BudgetVector, is_unit: bool,
        demands: dict[TKey, dict[int, frozenset[int]]],
        use_lp: bool = True,
        max_lp_variables: int = 50_000,
) -> dict[TKey, int]:
    """Quantized LP guidance, shared verbatim by every consumer.

    The constraint matrix is assembled straight into COO triplet
    arrays (one ``(row, col, load)`` per nonzero) and handed to
    scipy as CSR; the row order — and therefore the solver's chosen
    optimal vertex — is identical however the caller built the
    conflict structure, which keeps both decomposition engines on equal
    guidance.
    """
    if not keys:
        return {}
    if not use_lp or len(keys) > max_lp_variables:
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
# Step 3: local-ratio weight decomposition (two engines, one outcome)
# ----------------------------------------------------------------------
#
# Selection rule (the contract both engines implement): each round chooses
# the remaining key minimizing ``(mass, latest_finish, key)``, where
# ``mass`` is the integer guidance of the key plus its still-remaining
# neighbors. The chosen key's (integer) weight is subtracted from its
# closed remaining neighborhood; keys at weight <= 0 leave ``remaining``.
# All arithmetic is integral, so the argmin is order-independent.

#: Initial (integer) local-ratio weight of every t-interval.
_INITIAL_WEIGHT = 1 << 20


def _decompose_reference(keys: list[TKey], etas: dict[TKey, TInterval],
                         adjacency: Adjacency,
                         guidance: dict[TKey, int]) -> list[TKey]:
    """The specification: recompute every mass, every round."""
    weights = {key: _INITIAL_WEIGHT for key in keys}
    remaining = set(keys)
    stack: list[TKey] = []

    def neighborhood_mass(key: TKey) -> int:
        mass = guidance[key]
        for neighbor in adjacency[key]:
            if neighbor in remaining:
                mass += guidance[neighbor]
        return mass

    while remaining:
        chosen = min(
            remaining,
            key=lambda key: (neighborhood_mass(key),
                             etas[key].latest_finish, key),
        )
        epsilon = weights[chosen]
        stack.append(chosen)
        affected = [chosen] + [neighbor for neighbor in adjacency[chosen]
                               if neighbor in remaining]
        for key in affected:
            weights[key] -= epsilon
            if weights[key] <= 0:
                remaining.discard(key)
    return stack


def _decompose_fast(keys: list[TKey], etas: dict[TKey, TInterval],
                    adjacency: Adjacency,
                    guidance: dict[TKey, int]) -> list[TKey]:
    """Lazy-heap engine: same selection rule, O(deg log m) per round.

    ``mass[key]`` is maintained incrementally — when a key leaves
    ``remaining``, its guidance is subtracted from every remaining
    neighbor's mass and a fresh heap entry is pushed for each (the dirty
    ones). A popped entry whose stored mass no longer matches the
    current mass is stale and skipped, so the heap top is always the
    true ``(mass, finish, key)`` argmin — identical to the reference's
    full rescan because the masses are exact integers.
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
