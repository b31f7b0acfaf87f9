"""Churn plans, and churned runs as static instances with lifetimes.

A :class:`ChurnPlan` is an ordered list of :class:`ChurnEvent`\\ s —
mid-epoch profile registrations and cancellations. Event semantics
follow :class:`~repro.runtime.proxy.MonitoringProxy`: an event at
``chronon == T`` lands while the proxy clock reads ``T`` (``T = 0``
means before the first chronon), so an added profile's t-intervals
participate from chronon ``T + 1`` on and a cancelled one's up to ``T``.

A plan is known before the run starts, so it changes only *which
chronons each t-interval is there for*: :func:`lower_plan` turns
(initial set, plan) into one union profile set plus two per-t-interval
vectors, ``visible_from`` and ``gone_from``, and
:func:`run_churned` runs that as one lane of the columnar block kernel
(:mod:`repro.simulation.batch`) — the kernel the static experiments
use, reading a lowering whose EIs are cut to their lifetimes. Where the
columns cannot serve a run (a policy without a columnar kind such as
RANDOM, a replayed fault trace, a custom ``state_factory``, keys beyond
62 bits) it is handed, before any chronon runs, to the event engine —
:meth:`FastProxySimulator.run(churn=...)
<repro.simulation.engine.FastProxySimulator.run>`, which splices each
event into its live queues between chronons — and the logger
``repro.simulation.churn`` says why. ``mode="rebuild"`` is that engine
rebuilding its structures from scratch after every event: the referee
both paths are property-tested against
(:mod:`tests.properties.test_prop_churn_incremental`) and
``benchmarks/bench_churn.py`` times.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.errors import ModelError
from repro.core.profile import Profile, ProfileColumns, ProfileSet
from repro.core.timeline import Chronon, Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultInjector, FaultSpec
from repro.online.base import Policy, TIntervalState
from repro.simulation import batch
from repro.simulation.columnar import BatchUnsupported, ColumnarInstance
from repro.simulation.engine import FastProxySimulator
from repro.simulation.result import SimulationResult

__all__ = ["ChurnEvent", "ChurnPlan", "LoweredPlan", "lower_plan",
           "run_churned"]

_MODES = ("incremental", "rebuild")

_log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One mid-epoch registration ("add") or cancellation ("remove")."""

    chronon: Chronon
    action: str
    profile: Profile | None = None
    profile_id: int | None = None

    def __post_init__(self) -> None:
        if self.chronon < 0:
            raise ModelError(
                f"churn chronon must be >= 0, got {self.chronon}")
        if self.action == "add":
            if self.profile is None:
                raise ModelError("'add' events need a profile")
        elif self.action == "remove":
            if self.profile_id is None:
                raise ModelError("'remove' events need a profile_id")
        else:
            raise ModelError(
                f"churn action must be 'add' or 'remove', "
                f"got {self.action!r}")

    @classmethod
    def add(cls, chronon: Chronon, profile: Profile) -> "ChurnEvent":
        return cls(chronon=chronon, action="add", profile=profile)

    @classmethod
    def remove(cls, chronon: Chronon, profile_id: int) -> "ChurnEvent":
        return cls(chronon=chronon, action="remove",
                   profile_id=profile_id)


@dataclass(frozen=True, slots=True)
class ChurnPlan:
    """An ordered sequence of churn events.

    Same-chronon events apply in plan order — the order determines the
    arrival sequence numbers the engine's tie-breaks use, exactly as
    registration order does in the live proxy.
    """

    events: tuple[ChurnEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)


class LoweredPlan(NamedTuple):
    """A churn plan as data: who is ever registered, and when.

    ``profiles`` is the union — the initial set, then every added
    profile in application order, so a profile's id is its position,
    exactly the ids the engine hands out. ``visible_from`` /
    ``gone_from`` hold one entry per t-interval of the union, in its
    creation order: 0 for the initial set and ``T + 1`` for a profile
    added at clock ``T``; the clock of the *first* ``remove`` naming the
    profile, or ``epoch.last + 1`` for one nobody cancels. ``fired`` counts
    the events applied, ``added`` the profiles among them.
    """

    profiles: ProfileSet
    visible_from: np.ndarray
    gone_from: np.ndarray
    fired: int
    added: int


def lower_plan(profiles: ProfileSet, plan, epoch: Epoch) -> LoweredPlan:
    """Apply ``plan`` to ``profiles`` on paper: the run's lifetimes.

    Events apply in chronon order, plan order within a chronon; one
    past ``epoch.last`` never fires. Raises the :class:`ModelError` the
    engine raises at that point of the plan: an empty ``add``, a
    ``remove`` of an id nobody holds yet.
    """
    last = epoch.last
    events = sorted((event for event in plan
                     if 0 <= event.chronon <= last),
                    key=attrgetter("chronon"))
    base = profiles.columns()
    # An id can be cancelled once it owns a t-interval (an empty initial
    # profile never registered anything).
    registered = set(np.flatnonzero(np.bincount(base.ei_profile)).tolist())
    visible = [0] * len(base.names)
    gone: dict[int, int] = {}
    added: list[Profile] = []
    for event in events:
        if event.action == "add":
            if len(event.profile) == 0:
                raise ModelError("cannot register an empty profile")
            registered.add(len(visible))
            visible.append(event.chronon + 1)
            added.append(event.profile)
        elif event.action == "remove":
            if event.profile_id not in registered:
                raise ModelError(
                    f"unknown profile id {event.profile_id!r}")
            gone.setdefault(event.profile_id, event.chronon)
        else:
            raise ModelError(f"unknown churn action {event.action!r}")

    more = ProfileColumns.of(added)
    union = ProfileColumns(
        base.names + more.names,
        np.concatenate((base.ei_profile,
                        more.ei_profile + len(base.names))),
        *(np.concatenate(pair) for pair in zip(base[2:], more[2:])))
    owner = union.ei_profile[union.tinterval_heads()]
    gone_at = np.full(len(visible), last + 1, dtype=np.int64)
    gone_at[list(gone)] = list(gone.values())
    return LoweredPlan(
        ProfileSet.from_columns(union),
        np.array(visible, dtype=np.int64)[owner], gone_at[owner],
        len(events), len(added))


def _run_columns(profiles: ProfileSet, epoch: Epoch, budget: BudgetVector,
                 policy: Policy, plan, preemptive: bool, faults, retry,
                 breaker) -> SimulationResult:
    """The churned epoch as one lane of the block kernel; raises
    :class:`BatchUnsupported`, before any chronon runs, for what the
    columns cannot serve."""
    started = time.perf_counter()
    lowered = lower_plan(profiles, plan, epoch)
    columnar = ColumnarInstance.build(
        lowered.profiles, epoch, lowered.visible_from, lowered.gone_from)
    fault = None
    if faults is not None or retry is not None or breaker is not None:
        fault = batch.FaultLane(faults, retry, breaker)
    (result,) = batch.run_block(
        lowered.profiles, epoch, [(policy, preemptive, budget, 0, fault)],
        columnar=columnar)
    extras = {}
    if lowered.fired:
        # Doomed at birth: registered after one of its deadlines.
        late = columnar.ei_finish < columnar.st_arrival[columnar.ei_state]
        late &= columnar.st_visible[columnar.ei_state] > 0
        extras = {
            "dropped": result.extras["dropped"],
            "added_profiles": float(lowered.added),
            "doomed_at_birth": float(
                np.unique(columnar.ei_state[late]).size),
        }
    return replace(result, extras=extras,
                   runtime_seconds=time.perf_counter() - started)


def run_churned(profiles: ProfileSet, epoch: Epoch,
                budget: BudgetVector, policy: Policy,
                plan=(), preemptive: bool = True,
                mode: str = "incremental",
                state_factory=TIntervalState,
                faults: FaultSpec | FaultInjector | None = None,
                retry: RetryConfig | None = None,
                breaker: CircuitBreaker | None = None) -> SimulationResult:
    """One full churned epoch.

    ``profiles`` is the initial (chronon-0-registered) set; ``plan``
    iterates churn events. ``mode="incremental"`` lowers the plan to
    lifetimes and runs one lane of the block kernel over them — or, for
    what the columns cannot serve, the event engine splicing each event
    between chronons; ``mode="rebuild"`` is the event engine rebuilding
    its derived structures from scratch after every event (the
    referee). All three give the same result.
    """
    if mode not in _MODES:
        raise ModelError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "incremental":
        try:
            if state_factory is not TIntervalState:
                raise BatchUnsupported("custom state_factory")
            return _run_columns(profiles, epoch, budget, policy, plan,
                                preemptive, faults, retry, breaker)
        except BatchUnsupported as why:
            _log.info("churned run on the event engine, not the "
                      "columns: %s", why)
    sim = FastProxySimulator(
        profiles, epoch, budget, policy, preemptive=preemptive,
        state_factory=state_factory, faults=faults, retry=retry,
        breaker=breaker)
    return sim.run(churn=plan, churn_rebuild=(mode == "rebuild"))
