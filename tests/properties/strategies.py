"""Shared hypothesis strategies for model objects."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.faults import FaultSpec, Outage, RetryConfig
from repro.simulation import ChurnEvent, ChurnPlan

HORIZON = 16
NUM_RESOURCES = 4


@st.composite
def execution_intervals(draw, horizon: int = HORIZON,
                        num_resources: int = NUM_RESOURCES,
                        unit_width: bool = False) -> ExecutionInterval:
    resource = draw(st.integers(0, num_resources - 1))
    start = draw(st.integers(1, horizon))
    if unit_width:
        finish = start
    else:
        finish = min(horizon, start + draw(st.integers(0, 4)))
    return ExecutionInterval(resource, start, finish)


@st.composite
def tintervals(draw, max_eis: int = 3, unit_width: bool = False,
               quotas: bool = False) -> TInterval:
    """A t-interval; with ``quotas``, one of several EIs needs fewer
    than all of them half the time."""
    eis = draw(st.lists(execution_intervals(unit_width=unit_width),
                        min_size=1, max_size=max_eis))
    need = None
    if quotas and len(eis) > 1 and draw(st.booleans()):
        need = draw(st.integers(1, len(eis) - 1))
    return TInterval(eis, need=need)


@st.composite
def profiles(draw, max_tintervals: int = 3, unit_width: bool = False,
             quotas: bool = False) -> Profile:
    etas = draw(st.lists(tintervals(unit_width=unit_width, quotas=quotas),
                         min_size=1, max_size=max_tintervals))
    return Profile(etas)


@st.composite
def profile_sets(draw, max_profiles: int = 3, unit_width: bool = False,
                 quotas: bool = False) -> ProfileSet:
    members = draw(st.lists(profiles(unit_width=unit_width, quotas=quotas),
                            min_size=1, max_size=max_profiles))
    return ProfileSet(members)


def epoch() -> Epoch:
    return Epoch(HORIZON)


@st.composite
def fault_specs(draw, num_resources: int = NUM_RESOURCES,
                with_per_resource: bool = False) -> FaultSpec:
    """A valid random fault model over ``num_resources`` resources.

    Outage windows for one resource are kept disjoint (adjacent is
    fine) — :class:`FaultSpec` rejects overlaps at construction — and a
    resource with a permanent window gets no further windows.
    """
    outages = []
    next_free: dict[int, int] = {}
    permanent_out: set[int] = set()
    for _ in range(draw(st.integers(0, 2))):
        resource_id = draw(st.integers(0, num_resources - 1))
        if resource_id in permanent_out:
            continue
        start = next_free.get(resource_id, 0) + draw(st.integers(0, 8))
        if draw(st.booleans()):
            last = None
            permanent_out.add(resource_id)
        else:
            last = start + draw(st.integers(0, 6))
            next_free[resource_id] = last + 1
        outages.append(Outage(resource_id, start, last))
    per_resource = {}
    if with_per_resource:
        per_resource = draw(st.dictionaries(
            st.integers(0, num_resources - 1), st.floats(0.0, 1.0),
            max_size=2))
    return FaultSpec(
        failure_probability=draw(st.floats(0.0, 0.9)),
        timeout_probability=draw(st.floats(0.0, 0.3)),
        stale_probability=draw(st.floats(0.0, 0.5)),
        stale_lag=draw(st.integers(0, 3)),
        outages=tuple(outages),
        per_resource=per_resource,
        max_probes_per_chronon=draw(
            st.one_of(st.none(), st.integers(1, 3))),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def budget_vectors(draw) -> BudgetVector:
    """A constant budget of 1-3, sometimes with per-chronon overrides
    (0 included)."""
    default = draw(st.integers(1, 3))
    overrides = draw(st.dictionaries(
        st.integers(1, 12), st.integers(0, 4), max_size=2))
    return BudgetVector(default, overrides or None)


@st.composite
def retry_configs(draw) -> RetryConfig | None:
    if not draw(st.booleans()):
        return None
    return RetryConfig(max_retries=draw(st.integers(0, 3)))


@st.composite
def breaker_params(draw) -> tuple | None:
    """``CircuitBreaker`` arguments (threshold, cooldown, backoff,
    max_cooldown), or None."""
    if not draw(st.booleans()):
        return None
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
            draw(st.floats(1.0, 2.5)), draw(st.integers(4, 16)))


def eta(*eis) -> TInterval:
    """A t-interval of ``(resource, start, finish)`` triples."""
    return TInterval(ExecutionInterval(*ei) for ei in eis)


@st.composite
def plans(draw, quotas: bool = False):
    """An initial set (possibly empty) and a legal plan in any order:
    unsorted chronons, events past the epoch, profiles cancelled twice,
    cancelled in the chronon they joined, or never."""
    initial = draw(st.one_of(st.just(ProfileSet()),
                             profile_sets(max_profiles=3, quotas=quotas)))
    adds = draw(st.lists(
        st.tuples(st.integers(0, HORIZON + 2),
                  profiles(max_tintervals=2, quotas=quotas)),
        max_size=4))
    # Ids follow application order: chronon, then plan order.
    firing = sorted((chronon, index)
                    for index, (chronon, _p) in enumerate(adds)
                    if chronon <= HORIZON)
    born = [(profile_id, 0, None) for profile_id in range(len(initial))]
    born += [(len(initial) + rank, chronon, index)
             for rank, (chronon, index) in enumerate(firing)]
    # Adds keep their drawn order (it numbers same-chronon adds); each
    # cancel goes anywhere in the plan — but in the chronon its profile
    # joins, only after that add.
    events = [ChurnEvent.add(chronon, profile) for chronon, profile in adds]
    plan = list(events)
    if born:
        for (profile_id, since, index), at in draw(st.lists(
                st.tuples(st.sampled_from(born),
                          st.integers(0, HORIZON + 2)), max_size=4)):
            low = 0
            if index is not None and at <= since:
                low = next(position for position, event in enumerate(plan)
                           if event is events[index]) + 1
            plan.insert(draw(st.integers(low, len(plan))),
                        ChurnEvent.remove(max(at, since), profile_id))
    return initial, ChurnPlan(plan)
