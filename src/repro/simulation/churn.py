"""Churn plans, and churned runs as static instances with lifetimes.

A :class:`ChurnPlan` is an ordered list of :class:`ChurnEvent`\\ s —
mid-epoch profile registrations and cancellations. The event semantics
live in :meth:`~repro.runtime.proxy.MonitoringProxy.follow`: an event
at ``chronon == T`` lands while the proxy clock reads ``T`` (``T = 0``
means before the first chronon), so an added profile's t-intervals
participate from chronon ``T + 1`` on and a cancelled one's up to ``T``.
A plan is its :class:`PlanColumns` as much as its events: one born from
columns (:meth:`ChurnPlan.from_columns`, what the churn experiment's
generator hands over) builds event and profile objects only for a
reader of ``events`` — the live proxy that referees a churned run.

A plan is known before the run starts, so it changes only *which
chronons each t-interval is there for*: :func:`lower_plan` turns
(initial set, plan) into one union profile set plus two per-t-interval
vectors, ``visible_from`` and ``gone_from``, and
:func:`run_churned` runs that as one lane of the columnar block kernel
(:mod:`repro.simulation.batch`) — the kernel the static experiments
use, reading a lowering whose EIs are cut to their lifetimes. The plan
keeps that lowering, so the next policy run over the same (initial set,
epoch) builds nothing before its first chronon. What the columns
cannot serve (a policy that overrides ``score``, keys beyond 62
bits) is refused with
:class:`BatchUnsupported` before any chronon runs: the live
:class:`~repro.runtime.proxy.MonitoringProxy` following the plan is the
way to run those — and the referee the columns are tested against
(``tests/conformance``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.errors import ModelError
from repro.core.profile import (
    Profile,
    ProfileColumns,
    ProfileSet,
    _profiles_from_columns,
)
from repro.core.timeline import Chronon, Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultInjector, FaultSpec
from repro.online.base import Policy
from repro.simulation import batch
from repro.simulation.columnar import BatchUnsupported, ColumnarInstance
from repro.simulation.result import SimulationResult

__all__ = ["ChurnEvent", "ChurnPlan", "LoweredPlan", "PlanColumns",
           "lower_plan", "run_churned"]

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


class PlanColumns(NamedTuple):
    """A churn plan as arrays.

    ``added`` holds every ``add``'s profile, position = add index. The
    three vectors have one entry per event, in plan order: ``is_add``,
    ``chronon``, and ``ref`` — the add index of an ``add`` (0, 1, ... in
    plan order), the profile id a ``remove`` names.
    """

    added: ProfileColumns
    is_add: np.ndarray
    chronon: np.ndarray
    ref: np.ndarray

    @classmethod
    def of(cls, events: Sequence[ChurnEvent]) -> "PlanColumns":
        """The columns of event objects: one walk.

        Columns hold adds and removes, so an event that is neither (a
        :class:`ChurnEvent` cannot be; a look-alike can) is refused
        here, wherever it sits in the plan and whether or not it would
        ever fire."""
        actions = [event.action for event in events]
        unknown = set(actions) - {"add", "remove"}
        if unknown:
            raise ModelError(f"unknown churn action {min(unknown)!r}")
        is_add = np.array([action == "add" for action in actions],
                          dtype=bool)
        ref = _saturated([0 if event.action == "add" else event.profile_id
                          for event in events])
        ref[is_add] = np.arange(np.count_nonzero(is_add))
        return cls(
            ProfileColumns.of([event.profile for event in events
                               if event.action == "add"]),
            is_add, _saturated([event.chronon for event in events]), ref)

    def checked(self) -> "PlanColumns":
        """These columns with ``added`` checked, or :class:`ModelError`:
        what :class:`ChurnEvent` enforces, as array predicates."""
        is_add, chronon, ref = (np.asarray(column) for column in self[1:])
        if (is_add.dtype != bool or is_add.ndim != 1
                or any(column.shape != is_add.shape
                       or column.dtype.kind not in "iu"
                       for column in (chronon, ref))):
            raise ModelError("a plan's columns are one bool and two "
                             "integer vectors of one length")
        if (chronon < 0).any():
            raise ModelError(
                f"churn chronon must be >= 0, got {int(chronon.min())}")
        if not np.array_equal(ref[is_add],
                              np.arange(len(self.added.names))):
            raise ModelError("'add' events number added's profiles "
                             "0, 1, ... in plan order")
        try:
            added = self.added.checked()
        except ValueError as why:
            raise ModelError(f"added profiles: {why}") from None
        return PlanColumns(added, is_add,
                           chronon.astype(np.int64, copy=False),
                           ref.astype(np.int64, copy=False))


def _saturated(values: list[int]) -> np.ndarray:
    """``values`` as ``int64``; one beyond the type sits at its bound
    (past every epoch, beyond every id) — so two plans that differ only
    out there, where no event fires and no id exists, compare equal."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        bound = np.iinfo(np.int64)
        return np.array([min(max(value, bound.min), bound.max)
                         for value in values], dtype=np.int64)


class ChurnPlan:
    """An ordered sequence of churn events.

    What an event does, and when, is
    :meth:`~repro.runtime.proxy.MonitoringProxy.follow`'s to say: the
    live proxies play a plan through it, and :func:`lower_plan` mirrors
    it. Same-chronon events apply in plan order — the order determines
    the profile ids and arrival sequence numbers the tie-breaks use.

    A plan is built from :class:`ChurnEvent` objects or, by
    :meth:`from_columns`, from :class:`PlanColumns`. A column-born plan
    answers ``len`` and :meth:`columns` from the arrays and builds its
    events (and their profiles) on the first read of ``events``; a
    hand-built one walks its events once for :meth:`columns`. Plans are
    immutable and compare by value — same events, whichever way they
    were born. A plan also keeps the last lowering :func:`run_churned`
    built from it (one entry, never pickled).
    """

    __slots__ = ("_events", "_columns", "_lowering")

    def __init__(self, events: Iterable[ChurnEvent] = ()) -> None:
        self._events: tuple[ChurnEvent, ...] | None = tuple(events)
        self._columns: PlanColumns | None = None
        self._lowering: _Lowering | None = None

    @classmethod
    def from_columns(cls, columns: PlanColumns) -> "ChurnPlan":
        """The plan these columns describe (:class:`ModelError` if they
        do not pass :meth:`PlanColumns.checked`)."""
        born = cls.__new__(cls)
        born._events = None
        born._columns = columns.checked()
        born._lowering = None
        return born

    @property
    def events(self) -> tuple[ChurnEvent, ...]:
        """The events, in plan order."""
        if self._events is None:
            columns = self._columns
            added = _profiles_from_columns(columns.added)
            self._events = tuple(
                ChurnEvent.add(chronon, added[ref]) if is_add
                else ChurnEvent.remove(chronon, ref)
                for is_add, chronon, ref
                in zip(*(column.tolist() for column in columns[1:])))
        return self._events

    def columns(self) -> PlanColumns:
        """The plan as arrays: the ones a column-born plan holds, else
        one walk over the events, kept."""
        if self._columns is None:
            self._columns = PlanColumns.of(self._events)
        return self._columns

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        if self._events is None:
            return self._columns.is_add.size
        return len(self._events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChurnPlan):
            return NotImplemented
        mine, theirs = self.columns(), other.columns()
        return (mine.added.names == theirs.added.names
                and all(np.array_equal(left, right) for left, right
                        in zip(mine.added[1:] + mine[1:],
                               theirs.added[1:] + theirs[1:])))

    def __hash__(self) -> int:
        return hash(tuple(column.tobytes()
                          for column in self.columns()[1:]))

    def __reduce__(self):
        if self._events is None:
            return ChurnPlan.from_columns, (self._columns,)
        return ChurnPlan, (self._events,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChurnPlan({len(self)} events)"


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


@dataclass(slots=True)
class _Lowering:
    """What a plan keeps of the last run it served as columns."""

    profiles: ProfileSet
    epoch: Epoch
    lowered: LoweredPlan
    columnar: ColumnarInstance
    runs: int = 1


def lower_plan(profiles: ProfileSet, plan, epoch: Epoch) -> LoweredPlan:
    """Apply ``plan`` to ``profiles`` on paper: the run's lifetimes.

    The rules are :meth:`~repro.runtime.proxy.MonitoringProxy.follow`'s:
    events apply in chronon order, plan order within a chronon; one
    past ``epoch.last`` never fires; an ``add`` takes the next id, an
    empty one too. Raises the :class:`ModelError` the proxy raises at
    that point of the plan: a ``remove`` of an id nobody holds yet. A
    profile with no columns (an id or chronon past int32) raises
    :class:`BatchUnsupported`.
    """
    if not isinstance(plan, ChurnPlan):
        plan = ChurnPlan(plan)
    try:
        columns = plan.columns()
        base = profiles.columns()
    except ValueError as why:
        raise BatchUnsupported(str(why)) from None
    last = epoch.last
    initial = len(base.names)

    # The events that fire, in the order they apply.
    fires = np.flatnonzero((columns.chronon >= 0)
                           & (columns.chronon <= last))
    order = fires[np.argsort(columns.chronon[fires], kind="stable")]
    is_add, clock, ref = (column[order] for column in columns[1:])
    joined, left = ref[is_add], ref[~is_add]

    # The proxy checks each cancel when it applies it: the id must be
    # held by then — an initial profile's, or one of the adds applied so
    # far, which take the next ids in turn (an empty one too).
    held = initial + np.cumsum(is_add)[~is_add]
    bad = np.flatnonzero((left < 0) | (left >= held))
    if bad.size:
        # As its author wrote it (the columns hold an id beyond int64
        # at the type's bound).
        named = (int(left[bad[0]]) if plan._events is None
                 else plan._events[order[~is_add][bad[0]]].profile_id)
        raise ModelError(f"unknown profile id {named!r}")

    # The union: the applied adds' rows behind the initial set's. Adds
    # that all fire in plan order are `added` as it stands.
    more = columns.added
    if not np.array_equal(joined, np.arange(len(more.names))):
        more = more.take(joined)
    union = ProfileColumns.concat((base, more))
    visible = np.zeros(len(union.names), dtype=np.int64)
    visible[initial:] = clock[is_add] + 1
    gone = np.full(len(union.names), last + 1, dtype=np.int64)
    np.minimum.at(gone, left, clock[~is_add])  # the first cancel counts
    owner = union.ei_profile[union.tinterval_heads()]
    return LoweredPlan(ProfileSet.from_columns(union), visible[owner],
                       gone[owner], order.size, joined.size)


def _lowering(profiles: ProfileSet, plan: ChurnPlan, epoch: Epoch) \
        -> tuple[LoweredPlan, ColumnarInstance]:
    """``plan``'s lowering over (``profiles``, ``epoch``): the one it
    kept from the last run if that was over the same (immutable) set
    and an equal epoch, else a new one — kept only once it is whole."""
    kept = plan._lowering
    if (kept is not None and kept.profiles is profiles
            and kept.epoch == epoch):
        _log.debug("reused the plan's lowering (served %d runs before)",
                   kept.runs)
        kept.runs += 1
        return kept.lowered, kept.columnar
    started = time.perf_counter()
    lowered = lower_plan(profiles, plan, epoch)
    columnar = ColumnarInstance.build(
        lowered.profiles, epoch, lowered.visible_from, lowered.gone_from)
    plan._lowering = _Lowering(profiles, epoch, lowered, columnar)
    _log.debug("lowered the plan: %d events fired, %d profiles added, "
               "%d EIs, %.4f s", lowered.fired, lowered.added, columnar.E,
               time.perf_counter() - started)
    return lowered, columnar


def run_churned(profiles: ProfileSet, epoch: Epoch,
                budget: BudgetVector, policy: Policy,
                plan=(), preemptive: bool = True,
                mode: str = "incremental",
                faults: FaultSpec | FaultInjector | None = None,
                retry: RetryConfig | None = None,
                breaker: CircuitBreaker | None = None) -> SimulationResult:
    """One full churned epoch, as columns.

    ``profiles`` is the initial (chronon-0-registered) set; ``plan``
    is a :class:`ChurnPlan` or iterates churn events (it is read once).
    The plan is lowered to lifetimes — or the lowering the plan kept
    from its last run is taken, if that was over this set and epoch —
    and run as one lane of the block kernel. A run the columns cannot
    serve raises :class:`BatchUnsupported` before any chronon runs; a
    fault source other than a spec, an injector or None is a
    :class:`TypeError`.
    ``mode`` has one value, ``"incremental"``; the keyword survives
    only because ``benchmarks/e2e/workloads.py::churn_run`` passes it,
    and leaves with that call.
    """
    if mode != "incremental":
        raise ModelError(
            f"mode must be one of ('incremental',), got {mode!r}")
    if not isinstance(plan, ChurnPlan):
        plan = ChurnPlan(plan)
    started = time.perf_counter()
    fault = batch.FaultLane(faults, retry, breaker)
    try:
        lowered, columnar = _lowering(profiles, plan, epoch)
        (result,) = batch.run_block(
            lowered.profiles, epoch,
            [(policy, preemptive, budget, 0, fault)], columnar=columnar)
    except BatchUnsupported as why:
        raise BatchUnsupported(
            f"{why}; a churned run is columns or nothing — drive the live "
            "proxy (repro.runtime.proxy.MonitoringProxy) through the "
            "plan for this one") from None
    extras = {}
    if lowered.fired:
        # Doomed at birth: registered after more of its deadlines than
        # ``size - need``.
        late = columnar.ei_finish < columnar.st_arrival[columnar.ei_state]
        late &= columnar.st_visible[columnar.ei_state] > 0
        misses = np.bincount(columnar.ei_state[late], minlength=columnar.S)
        extras = {
            "dropped": result.extras["dropped"],
            "added_profiles": float(lowered.added),
            "doomed_at_birth": float(np.count_nonzero(
                misses > columnar.st_size - columnar.st_need)),
        }
    return replace(result, extras=extras,
                   runtime_seconds=time.perf_counter() - started)
