"""The offline pipeline's specification, spelled pair by pair.

``repro.offline`` builds conflict graphs by chronon-indexed sweeps, runs
the local-ratio decomposition on a lazy heap and decides schedulability
with an incremental, pre-checked matcher. Each of those is checked
against the plain definitions below: a pairwise conflict builder, a
decomposition that rescans every remaining t-interval every round, and a
from-scratch Kuhn matching of a whole t-interval set.
"""

from repro.offline.conflict import demand_map, self_infeasible

#: Initial local-ratio weight of every t-interval (as in the solver).
INITIAL_WEIGHT = 1 << 20


def _key(eta):
    return (eta.profile_id, eta.tinterval_id)


def _pairwise(profiles, budget, conflict):
    """``(etas, adjacency)`` over the feasible t-intervals, one edge per
    pair for which ``conflict(left, right)`` holds."""
    etas = {_key(eta): eta for eta in profiles.tintervals()
            if not self_infeasible(eta, budget)}
    adjacency = {key: set() for key in etas}
    keys = sorted(etas)
    for index, left in enumerate(keys):
        for right in keys[index + 1:]:
            if conflict(etas[left], etas[right]):
                adjacency[left].add(right)
                adjacency[right].add(left)
    return etas, adjacency


def unit_conflicts(profiles, budget):
    """``P^[1]``: two t-intervals conflict when, at a chronon both need,
    the distinct resources they need together exceed its budget."""
    if not profiles.is_unit_width:
        raise ValueError("unit_conflicts requires a P^[1] profile set")

    def conflict(left, right):
        left_demand, right_demand = demand_map(left), demand_map(right)
        return any(
            len(resources | right_demand[chronon]) > budget.at(chronon)
            for chronon, resources in left_demand.items()
            if chronon in right_demand)
    return _pairwise(profiles, budget, conflict)


def overlaps(profiles, budget):
    """Two t-intervals are neighbours when any EI window of one shares a
    chronon with any EI window of the other."""
    return _pairwise(profiles, budget, lambda left, right: any(
        a.overlaps(b) for a in left for b in right))


def decompose(keys, etas, adjacency, guidance):
    """The local-ratio stack: each round takes the remaining key with the
    least ``(guidance mass of its closed remaining neighbourhood, latest
    finish, key)`` and subtracts its weight from that neighbourhood."""
    weights = dict.fromkeys(keys, INITIAL_WEIGHT)
    remaining = set(keys)
    stack = []

    def mass(key):
        return guidance[key] + sum(guidance[other]
                                   for other in adjacency[key]
                                   if other in remaining)

    while remaining:
        chosen = min(remaining, key=lambda key: (
            mass(key), etas[key].latest_finish, key))
        epsilon = weights[chosen]
        stack.append(chosen)
        for key in [chosen, *(adjacency[chosen] & remaining)]:
            weights[key] -= epsilon
            if weights[key] <= 0:
                remaining.discard(key)
    return stack


def schedulable(tintervals, epoch, budget):
    """Whether every distinct EI (identical EIs merged) of ``tintervals``
    gets its own probe slot inside its window, budget and epoch."""
    eis = sorted({(ei.resource_id, ei.start, ei.finish)
                  for eta in tintervals for ei in eta})
    holder = {}

    def place(ei, seen):
        _resource, start, finish = ei
        for chronon in range(max(start, epoch.first),
                             min(finish, epoch.last) + 1):
            for slot in ((chronon, index)
                         for index in range(budget.at(chronon))):
                if slot in seen:
                    continue
                seen.add(slot)
                if slot not in holder or place(holder[slot], seen):
                    holder[slot] = ei
                    return True
        return False

    return all(place(ei, set()) for ei in eis)


def unwind(stack, etas, epoch, budget):
    """The accepted keys, in acceptance order: the stack from its top
    down, then every key it left out, cheapest and most urgent first —
    each accepted when the accepted set stays schedulable with it (a
    rejected stack key is not retried: the accepted set only grows)."""
    leftovers = sorted(set(etas) - set(stack), key=lambda key: (
        etas[key].size, etas[key].latest_finish, key))
    accepted = []
    for key in [*reversed(stack), *leftovers]:
        if schedulable([etas[k] for k in (*accepted, key)], epoch, budget):
            accepted.append(key)
    return accepted
