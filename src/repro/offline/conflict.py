"""Conflict structure of t-intervals (split-interval graphs).

The Local-Ratio approximation (Section 4.1.2) works on the *conflict graph*
of t-intervals. For unit-width instances (``P^[1]``) the conflict relation
is exact:

    two t-intervals conflict at chronon ``j`` with budget ``C_j`` iff the
    union of the *distinct resources* both need at ``j`` exceeds ``C_j``
    (EIs of the same resource at the same chronon share one probe, so they
    never conflict with each other).

For general instances we use the conservative *time-overlap* relation —
two t-intervals are neighbors when any of their EI windows intersect in
time — which over-approximates true conflicts; the Local-Ratio unwind then
enforces real feasibility by matching (see ``local_ratio``).

Both relations are built by chronon-indexed sweeps into plain
``dict[TKey, set[TKey]]`` adjacency (:func:`unit_conflict_adjacency`,
:func:`overlap_adjacency`). Their specification — the same relations
spelled out pair by pair — is ``tests/offline/oracle.py``, and the
property suite checks that the edge sets coincide.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.budget import BudgetVector
from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.profile import ProfileSet

__all__ = [
    "demand_map",
    "unit_conflict_adjacency",
    "overlap_adjacency",
    "self_infeasible",
]

# Key type for t-intervals in graphs: (profile_id, tinterval_id).
TKey = tuple[int, int]

# Adjacency form of a conflict graph: key -> set of conflicting keys.
Adjacency = dict[TKey, set[TKey]]


@lru_cache(maxsize=65536)
def _demand_map_cached(
        eis: tuple[ExecutionInterval, ...]) -> dict[int, frozenset[int]]:
    """``chronon -> resources`` demanded by unit-width EIs, memoized.

    Keyed on the (hashable, immutable) EI tuple so every consumer of the
    same t-interval — ``self_infeasible``, graph construction, the LP
    guidance — shares one computation. The returned mapping is shared:
    callers must not mutate it, hence the frozensets.
    """
    demands: dict[int, set[int]] = {}
    for ei in eis:
        if ei.is_unit:
            demands.setdefault(ei.start, set()).add(ei.resource_id)
    return {chronon: frozenset(resources)
            for chronon, resources in demands.items()}


def demand_map(eta: TInterval) -> dict[int, frozenset[int]]:
    """``chronon -> set of resources`` the t-interval needs, unit-width EIs.

    Only meaningful for unit-width t-intervals: a unit EI *must* be probed
    at its single chronon. EIs of the same resource at the same chronon
    merge into one demand. Results are cached per EI tuple (the map is
    consulted once per pair during conflict construction and again by the
    LP guidance); treat the returned mapping as read-only.
    """
    return _demand_map_cached(eta.eis)


def self_infeasible(eta: TInterval, budget: BudgetVector) -> bool:
    """True when a t-interval alone exceeds the budget somewhere.

    Such t-intervals can never be captured (they need more simultaneous
    probes than the budget allows) and are excluded up front.

    Unit-width t-intervals are checked chronon by chronon: the distinct
    resources demanded at ``j`` must fit ``C_j``. General t-intervals get
    the pigeonhole generalization of the same argument: for every chronon
    window ``[a, b]``, the EIs whose whole window lies inside ``[a, b]``
    must all be probed within it, and distinct resources need distinct
    probes — so if they reference more distinct resources than the
    window's total budget, the t-interval is doomed regardless of how the
    probes are placed. (Only EI endpoint pairs need checking; any other
    window confines a subset of the EIs one of those windows confines.)
    """
    demands = demand_map(eta)
    if any(len(resources) > budget.at(chronon)
           for chronon, resources in demands.items()):
        return True
    if eta.is_unit_width:
        return False
    starts = sorted({ei.start for ei in eta})
    finishes = sorted({ei.finish for ei in eta})
    for first in starts:
        for last in finishes:
            if last < first:
                continue
            confined = {ei.resource_id for ei in eta
                        if first <= ei.start and ei.finish <= last}
            if len(confined) > budget.total_between(first, last):
                return True
    return False


def unit_conflict_adjacency(
        profiles: ProfileSet, budget: BudgetVector,
) -> tuple[dict[TKey, TInterval], Adjacency]:
    """Exact conflict graph of a ``P^[1]`` profile set.

    Returns ``(etas, adjacency)`` keyed by ``(profile_id, tinterval_id)``;
    self-infeasible t-intervals are omitted. Per chronon, t-intervals are
    grouped into *demand classes* (identical resource sets demanded at
    that chronon): two members of one class never conflict (their union
    is the class set, which fits the budget once self-infeasible
    t-intervals are dropped), and the union-size test runs once per class
    pair instead of once per t-interval pair.

    Raises
    ------
    ValueError
        If the profile set is not unit-width.
    """
    if not profiles.is_unit_width:
        raise ValueError("unit_conflict_adjacency requires a P^[1] "
                         "profile set")
    etas: dict[TKey, TInterval] = {}
    adjacency: Adjacency = {}
    # chronon -> demand class (resource frozenset) -> member keys.
    by_chronon: dict[int, dict[frozenset[int], list[TKey]]] = {}
    for eta in profiles.tintervals():
        demands = demand_map(eta)
        # Inline of self_infeasible for the unit case (every EI of a
        # P^[1] t-interval is unit), sharing the one demand-map lookup.
        if any(len(resources) > budget.at(chronon)
               for chronon, resources in demands.items()):
            continue
        key = (eta.profile_id, eta.tinterval_id)
        etas[key] = eta
        adjacency[key] = set()
        for chronon, resources in demands.items():
            by_chronon.setdefault(chronon, {}) \
                .setdefault(resources, []).append(key)

    for chronon, classes in by_chronon.items():
        capacity = budget.at(chronon)
        groups = list(classes.items())
        for index, (left_set, left_keys) in enumerate(groups):
            for right_set, right_keys in groups[index + 1:]:
                if len(left_set | right_set) <= capacity:
                    continue
                for left in left_keys:
                    neighbors = adjacency[left]
                    for right in right_keys:
                        neighbors.add(right)
                        adjacency[right].add(left)
    return etas, adjacency


def overlap_adjacency(
        profiles: ProfileSet, budget: BudgetVector,
) -> tuple[dict[TKey, TInterval], Adjacency]:
    """Conservative time-overlap graph of a general profile set.

    Emits an edge exactly when two t-intervals have EI windows sharing a
    chronon (regardless of resource) by sweeping EI start/finish events
    and connecting each starting EI's owner to every t-interval currently
    holding an active EI. Self-infeasible t-intervals under ``budget`` are
    excluded up front.
    """
    etas: dict[TKey, TInterval] = {}
    adjacency: Adjacency = {}
    # (chronon, kind, key): starts (kind 0) precede finishes (kind 1) at
    # the same chronon, so windows touching at one chronon do overlap.
    events: list[tuple[int, int, TKey]] = []
    for eta in profiles.tintervals():
        if self_infeasible(eta, budget):
            continue
        key = (eta.profile_id, eta.tinterval_id)
        etas[key] = eta
        adjacency[key] = set()
        for ei in eta:
            events.append((ei.start, 0, key))
            events.append((ei.finish, 1, key))
    events.sort()

    active: dict[TKey, int] = {}  # key -> number of currently-active EIs
    for _chronon, kind, key in events:
        if kind == 0:
            neighbors = adjacency[key]
            for other in active:
                if other != key:
                    neighbors.add(other)
                    adjacency[other].add(key)
            active[key] = active.get(key, 0) + 1
        else:
            remaining = active[key] - 1
            if remaining:
                active[key] = remaining
            else:
                del active[key]
    return etas, adjacency
