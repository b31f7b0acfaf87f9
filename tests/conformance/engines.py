"""The engines of the conformance matrix, one line each, and the one
definition of "the same run".

The paper has one online loop (§4): score the candidate EIs, probe the
best ``C_j`` resources, update capture state. Every way this repository
runs it is a line of :data:`ENGINES` — an adapter from a
:class:`~tests.conformance.cases.Case` to the observation of each run it
makes, plus the cases it takes. :func:`check` runs a case on its referee
(the live proxy, which takes every case) and on every other engine that
takes it: each observation
must agree with the referee's and with every one before it on every
field both carry, or the engine must refuse the case as :data:`REFUSES`
says.
"""

from __future__ import annotations

import asyncio
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import pytest

from repro.core import BudgetVector
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryConfig,
    UnreliableServer,
)
from repro.runtime import MonitoringProxy, OriginServer
from repro.runtime.aio import AsyncMonitoringProxy
from repro.simulation import (
    BatchUnsupported,
    ChurnPlan,
    ColumnarInstance,
    federated_run,
    run_block,
    run_churned,
    run_online,
)
from repro.simulation.batch import FaultLane
from repro.simulation.churn import lower_plan
from repro.simulation.engine import FastProxySimulator

from tests.conformance.cases import (
    HAND_EPOCH,
    ROW_POLICIES,
    Case,
    make_policy,
    pinned,
)


# ----------------------------------------------------------------------
# What a run is
# ----------------------------------------------------------------------

def observe(result, faults=None, breaker=None) -> dict:
    """The observable run of a :class:`SimulationResult`: probes, label,
    report, counters and extras — less ``runtime_seconds`` and
    ``extras["lowering_windows"]``, a wall time and how many activity
    windows it includes — plus what it did to ``faults`` and
    ``breaker`` (see :func:`sides`)."""
    report = result.report
    extras = {name: value for name, value in result.extras.items()
              if name != "lowering_windows"}
    seen = {
        "probes": list(result.schedule.probes()),
        "label": result.label,
        "captured": report.captured,
        "total": report.total,
        "per_profile": dict(report.per_profile),
        "per_rank": dict(report.per_rank),
        "probes_used": result.probes_used,
        "expired": result.expired,
        "dropped": int(extras.pop("dropped", 0)),
        "probes_failed": result.probes_failed,
        "retries": result.retries,
        "resources_quarantined": result.resources_quarantined,
    }
    seen.update((f"extras[{name}]", value) for name, value in extras.items())
    return seen | sides(faults, breaker)


def sides(faults, breaker) -> dict:
    """What a run did to its stateful fault objects: a recording
    injector's trace, a breaker's end state."""
    seen = {}
    if type(faults) is FaultInjector:
        seen["trace"] = list(faults.trace)
    if breaker is not None:
        seen["breaker"] = breaker_state(breaker)
    return seen


def breaker_state(breaker: CircuitBreaker) -> tuple:
    """The resources ever quarantined, and each resource's
    ``(consecutive_failures, open_until, trips)``."""
    return (breaker.ever_quarantined,
            {rid: (state.consecutive_failures, state.open_until,
                   state.trips)
             for rid, state in breaker._states.items()})


def assert_agree(got: dict, want: dict, engine: str = "") -> None:
    """``got`` equals ``want`` on every field both observed."""
    for field in sorted(got.keys() & want.keys()):
        assert got[field] == want[field], f"{engine}: {field}"


def assert_same_run(left, right) -> None:
    """Two :class:`SimulationResult` s are one run."""
    assert_agree(observe(left), observe(right))


def gc_map(outcome) -> dict:
    """A sweep point's GC values per policy label."""
    return {label: po.gc_values for label, po in outcome.outcomes.items()}


def assert_same_gc(sweep, result, **kwargs) -> None:
    """``result`` — ``sweep(**kwargs)`` on the default engine — has the
    GC values of ``sweep(engine=..., **kwargs)`` on the solo and the
    reference engines, at every point."""
    for engine in ("solo", "reference"):
        other = sweep(engine=engine, **kwargs)
        for run, other_run in zip(result.runs, other.runs):
            assert gc_map(run) == gc_map(other_run)


def assert_accounting(federated) -> None:
    """The federation's ledger identities: routed probes partition the
    run's probes, steals balance, and no shard outspends its
    nominal-plus-stolen allowance."""
    loads, result = federated.loads, federated.result
    assert sum(load.probes_routed for load in loads) == result.probes_used
    assert sum(load.stolen_in for load in loads) == \
        sum(load.stolen_out for load in loads) == federated.stolen_budget
    for load in loads:
        assert 0 <= load.probes_routed <= load.effective_budget
        assert load.stolen_out <= load.nominal_budget


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------

def _one(case: Case, run) -> dict:
    """``run(policy, preemptive, faults=, retry=, breaker=)`` on fresh
    objects, observed."""
    faults, retry, breaker = case.layer()
    policy, preemptive = case.make_policy()
    return observe(run(policy, preemptive, faults=faults, retry=retry,
                       breaker=breaker), faults, breaker)


def _reference(case: Case) -> Iterator[dict]:
    yield _one(case, partial(run_online, case.profiles, case.epoch,
                             case.budget, engine="reference"))


def _live(case: Case, asynchronous: bool = False) -> Iterator[dict]:
    """The live proxy over a trace-less origin, following the case's
    initial set and plan (``MonitoringProxy.follow``)."""
    faults, retry, breaker = case.layer()
    server = OriginServer()
    if faults is not None:
        server = UnreliableServer(server, faults)
    policy, preemptive = case.make_policy()
    if asynchronous:
        proxy = AsyncMonitoringProxy(
            server, case.epoch, case.budget, policy, preemptive,
            retry=retry, breaker=breaker)
    else:
        proxy = MonitoringProxy(server, case.epoch, case.budget, policy,
                                preemptive, retry=retry, breaker=breaker)
    client = proxy.register_client()
    chronons = proxy.follow(client, case.profiles, case.plan or ())
    if asynchronous:
        async def drive():
            for _ in chronons:
                await proxy.astep()
            return await proxy.arun()
        stats = asyncio.run(drive())
    else:
        for _ in chronons:
            proxy.step()
        stats = proxy.run()
    # Everything resolved, each completed t-interval notified once.
    assert stats.registered == \
        stats.completed + stats.expired + stats.dropped
    assert (stats.pending, stats.hedges) == (0, 0)
    assert len(client.mailbox) == stats.completed
    counters = ("probes_used", "expired", "dropped", "probes_failed",
                "retries", "resources_quarantined")
    yield {"probes": list(proxy.schedule.probes()),
           "captured": stats.completed, "total": stats.registered,
           **{name: getattr(stats, name) for name in counters}} \
        | sides(faults, breaker)


@contextmanager
def _records(name: str):
    """What logger ``name`` records at INFO and above meanwhile."""
    logger = logging.getLogger(name)
    records, handler = [], logging.Handler(logging.INFO)
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _online(case: Case) -> Iterator[dict]:
    with _records("repro.simulation.proxy") as records:
        seen = _one(case, partial(run_online, case.profiles, case.epoch,
                                  case.budget))
    # What the columns refuse runs on the reference, which says so once.
    assert [record.levelno for record in records] == \
        [logging.INFO] * (refusal("block", case) is not None)
    yield seen


def _in_a_block(case: Case, policy, preemptive, **layer):
    """The case's lane among neighbours: every row at the case's budget
    (preemptive and not by turns), the case's policy at another budget,
    and a faulty lane."""
    noisy = FaultLane(FaultSpec(failure_probability=0.3, seed=9),
                      RetryConfig(1), CircuitBreaker(2, 3))
    lanes = [(policy, preemptive, case.budget, 0, FaultLane(**layer)),
             (*case.make_policy(),
              BudgetVector(case.budget.default % 3 + 1)),
             (*make_policy("S-EDF(NP)"), case.budget, 0, noisy)]
    lanes += [(*make_policy(label), case.budget)
              for label in ROW_POLICIES[case.shards % 2::2]]
    return run_block(case.profiles, case.epoch, lanes)[0]


def _block(case: Case) -> Iterator[dict]:
    yield _one(case, partial(_in_a_block, case))


def _federated_result(profiles, case: Case, policy, preemptive, faults,
                      retry, breaker, columnar=None):
    """The federation books reliable runs: ``faults`` is None on every
    case it takes, and a retry policy or breaker with no fault source
    never acts, so neither is passed."""
    assert faults is None
    federated = federated_run(profiles, case.epoch, case.budget, policy,
                              preemptive=preemptive, shards=case.shards,
                              columnar=columnar)
    assert [load.shard for load in federated.loads] == \
        list(range(case.shards))
    assert_accounting(federated)
    return federated.result


def _federated(case: Case) -> Iterator[dict]:
    yield _one(case, partial(_federated_result, case.profiles, case))


def _churned(case: Case) -> Iterator[dict]:
    """``run_churned``, and ``federated_run`` over the plan's lowering
    when the case is fault-free (a static case's is the ``federated``
    line's own run)."""
    plan = case.plan or ChurnPlan()
    yield _one(case, lambda policy, preemptive, **layer: run_churned(
        case.profiles, case.epoch, case.budget, policy, plan,
        preemptive=preemptive, **layer))
    if case.plan is None or not _reliable(case):
        return
    lowered = lower_plan(case.profiles, plan, case.epoch)
    columnar = ColumnarInstance.build(lowered.profiles, case.epoch,
                                      lowered.visible_from,
                                      lowered.gone_from)
    yield _one(case, partial(_federated_result, lowered.profiles, case,
                             columnar=columnar))


def _event(case: Case) -> Iterator[dict]:
    """Spliced and, under churn, rebuilt after every event."""
    for rebuild in (False, True) if case.plan else (False,):
        yield _one(case, lambda policy, preemptive, **layer:
                   FastProxySimulator(
                       case.profiles, case.epoch, case.budget, policy,
                       preemptive, **layer).run(churn=case.plan,
                                                churn_rebuild=rebuild))


@dataclass(frozen=True)
class Engine:
    """One way to run the loop: ``run(case)`` yields the observation of
    each run it makes; ``takes(case)`` says which cases are its."""

    run: Callable[[Case], Iterator[dict]]
    takes: Callable[[Case], bool] = lambda case: True


def _static(case: Case) -> bool:
    return case.plan is None


def _reliable(case: Case) -> bool:
    """No fault source: the federation books reliable runs only."""
    return case.faults == "none"


#: Every engine, one line each.
ENGINES = {
    "reference": Engine(_reference, _static),
    "live": Engine(_live),
    "live-async": Engine(partial(_live, asynchronous=True)),
    "online": Engine(_online, _static),
    "block": Engine(_block, _static),
    "federated": Engine(_federated,
                        lambda case: _static(case) and _reliable(case)),
    "churned": Engine(_churned),
    "event": Engine(_event),
}

#: The documented refusals: the engines that serve only columns raise
#: ``BatchUnsupported``, in these words, for what the columns cannot
#: encode. ``online`` refuses nothing: it falls back to the reference.
#: A faulty case is not refused by ``federated``: it is not one the
#: line takes (``federated_run`` has no fault layer).
_COLUMNS = ((lambda case: not case.has_row, "no columnar scoring kind"),)
REFUSES = {"block": _COLUMNS, "federated": _COLUMNS, "churned": _COLUMNS}


def refusal(engine: str, case: Case) -> str | None:
    """The words ``engine`` refuses ``case`` with; None if it runs it."""
    return next((words for applies, words in REFUSES.get(engine, ())
                 if applies(case)), None)


#: The one referee: the live proxy judges every case, static or
#: churned (``run_online(engine="reference")`` is the same proxy).
REFEREE = "live"


def referee_run(case: Case) -> dict:
    """The observation of the referee."""
    (want,) = ENGINES[REFEREE].run(case)
    return want


def check(case: Case, engines=tuple(ENGINES)) -> dict:
    """Run ``case`` on its referee and on each of ``engines`` that takes
    it; returns the referee's observation."""
    want = referee_run(case)
    seen = dict(want)
    for name in engines:
        engine = ENGINES[name]
        if name == REFEREE or not engine.takes(case):
            continue
        words = refusal(name, case)
        if words is not None:
            with pytest.raises(BatchUnsupported, match=words):
                list(engine.run(case))
            continue
        for got in engine.run(case):
            assert_agree(got, seen, name)
            seen |= got
    return want


def check_pinned(prefix: str, engines) -> None:
    """:func:`check` every pinned case named ``prefix…`` on ``engines``."""
    for case in pinned(prefix):
        check(case, engines)


def churned(initial, plan, label="MRSF(P)", budget=BudgetVector(1),
            epoch=HAND_EPOCH):
    """``run_churned`` over ``plan``, held to the live referee; returns
    its result."""
    policy, preemptive = make_policy(label)
    columns = run_churned(initial, epoch, budget, policy, plan,
                          preemptive=preemptive)
    assert_agree(observe(columns),
                 referee_run(Case(initial, epoch, label, budget, plan=plan)),
                 "churned")
    return columns
