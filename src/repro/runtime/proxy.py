"""The monitoring proxy runtime: pull from servers, push to clients.

This module is the *system* the paper describes in Section 3: clients
register profiles at the proxy (possibly while it is running), the proxy
probes origin servers under its budget using an online policy, and every
completed t-interval is pushed to its client as a
:class:`~repro.runtime.clients.Notification` carrying the captured
snapshots. It is also the measurement's specification:
``run_online(engine="reference")``
(:func:`repro.simulation.proxy.run_online`) is this proxy with one
client registering a fixed profile set, its report read off the
notifications.

The chronon itself lives in :mod:`repro.online.base`:
:meth:`MonitoringProxy.step` is :func:`~repro.online.base.plan_chronon`,
a probe round, :func:`~repro.online.base.settle_chronon`, and this is
their one call site (the asyncio proxy inherits both halves and awaits
its own probe round between them). Here are the clock,
registration (one profile at a time, or a churn plan through
:meth:`MonitoringProxy.follow`) and the drop of unregistered
t-intervals, snapshots and notifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

from repro.core.budget import BudgetVector
from repro.core.errors import ModelError
from repro.core.profile import Profile
from repro.core.schedule import Schedule
from repro.core.timeline import Chronon, Epoch
from repro.online.base import (
    EPOCH_OVER,
    Policy,
    TIntervalState,
    plan_chronon,
    retire,
    settle_chronon,
)
from repro.runtime.clients import Client, Notification
from repro.runtime.server import OriginServer, ProbeOutcome, Snapshot
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.engine import execute_probes

__all__ = ["MonitoringProxy", "ProxyStats"]


class _RuntimeState(TIntervalState):
    """t-interval state that also collects the captured snapshots."""

    __slots__ = ("snapshots", "registration")

    def __init__(self, eta, profile_rank: int,
                 registration: "_Registration") -> None:
        super().__init__(eta, profile_rank)
        self.snapshots: list[Snapshot | None] = [None] * len(eta)
        self.registration = registration


@dataclass(frozen=True, slots=True)
class ProxyStats:
    """Aggregate accounting of a proxy run so far.

    Invariant (once the run has flushed):
    ``registered == completed + expired + dropped``.

    ``probes_used`` counts *successful* probes (snapshots obtained);
    ``probes_failed`` counts non-ok requests (drops, timeouts, outages,
    throttles — including failed retries); ``hedges`` counts redundant
    hedge requests whose duplicate answer was discarded (only the async
    proxy issues hedges — always 0 for the synchronous proxy). Budget
    consumed so far is their sum, exposed as :attr:`requests_sent`.
    """

    registered: int
    completed: int
    expired: int
    dropped: int
    pending: int
    probes_used: int
    probes_failed: int = 0
    retries: int = 0
    resources_quarantined: int = 0
    hedges: int = 0

    @property
    def completeness(self) -> float:
        """Completed / (completed + expired); 1.0 while nothing resolved."""
        resolved = self.completed + self.expired
        if resolved == 0:
            return 1.0
        return self.completed / resolved

    @property
    def requests_sent(self) -> int:
        """Total pull requests issued (the budget actually consumed)."""
        return self.probes_used + self.probes_failed + self.hedges


class _Registration:
    """One registered profile: owner, identity, live flag."""

    __slots__ = ("profile_id", "client", "profile", "active")

    def __init__(self, profile_id: int, client: Client,
                 profile: Profile) -> None:
        self.profile_id = profile_id
        self.client = client
        self.profile = profile
        self.active = True


class MonitoringProxy:
    """A running proxy bound to one origin server.

    Parameters
    ----------
    server:
        The origin server to probe through its ``try_probe`` — an
        :class:`OriginServer` or a fault-injecting
        :class:`~repro.faults.UnreliableServer`.
    epoch:
        Monitoring horizon; :meth:`step` advances one chronon at a time.
    budget:
        Per-chronon probing budget.
    policy:
        Online policy ranking candidate EIs.
    preemptive:
        Preemption mode (see the paper's §4.2.1).
    retry:
        In-chronon retry allowance for failed probes (spends leftover
        budget); ``None`` disables retries.
    breaker:
        Circuit breaker quarantining persistently failing resources so
        the policy stops burning budget on them; ``None`` disables.

    Failed probes still consume the chronon's budget — ``C_j`` bounds
    requests, not successes. With a reliable server and no breaker the
    behaviour (schedule, notifications, stats) is identical to the
    pre-fault-model proxy.
    """

    def __init__(self, server: OriginServer, epoch: Epoch,
                 budget: BudgetVector, policy: Policy,
                 preemptive: bool = True,
                 retry: RetryConfig | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        self.server = server
        self.epoch = epoch
        self.budget = budget
        self.policy = policy
        self.preemptive = preemptive
        self.retry = retry
        self.breaker = breaker
        self._probes_failed = 0
        self._retries = 0
        self._hedges = 0

        self._clients: dict[int, Client] = {}
        self._registrations: dict[int, _Registration] = {}
        self._next_profile_id = 0
        self._clock: Chronon = 0

        self._pending: list[_RuntimeState] = []
        self._arrivals: dict[Chronon, list[_RuntimeState]] = {}
        self._schedule = Schedule()
        self._completed = 0
        self._expired = 0
        self._dropped = 0
        self._registered_tintervals = 0

    # ------------------------------------------------------------------
    # Registration API
    # ------------------------------------------------------------------

    def register_client(self, name: str = "", callback=None) -> Client:
        """Create and register a new client."""
        client = Client(len(self._clients), name=name, callback=callback)
        self._clients[client.client_id] = client
        return client

    def register_profile(self, client: Client, profile: Profile) -> int:
        """Register a profile for a client; returns the profile id.

        May be called before or during the run; t-intervals whose windows
        are already partially past still participate with whatever can be
        captured (fully past ones expire immediately, and so does every
        t-interval of a profile registered once the epoch is over). An
        empty profile takes its id like any other and monitors nothing,
        so the ids of a :class:`~repro.core.profile.ProfileSet`
        registered in order are its own.

        Raises
        ------
        ModelError
            For unknown clients.
        """
        if client.client_id not in self._clients:
            raise ModelError(f"unknown client {client.client_id}")
        profile_id = self._next_profile_id
        self._next_profile_id += 1
        attached = profile.attached(profile_id)
        registration = _Registration(profile_id, client, attached)
        self._registrations[profile_id] = registration

        self._registered_tintervals += len(attached)
        if self._clock >= self.epoch.last:
            # No chronon is left to pop an arrival: expired on arrival.
            self._expired += len(attached)
            return profile_id
        rank = attached.rank
        for eta in attached:
            state = _RuntimeState(eta, rank, registration)
            arrival = min(max(eta.earliest_start, self._clock + 1),
                          self.epoch.last)
            self._arrivals.setdefault(arrival, []).append(state)
        return profile_id

    def unregister_profile(self, profile_id: int) -> None:
        """Deactivate a profile: its pending t-intervals are dropped.

        Already-delivered notifications stay delivered; the dropped
        t-intervals count as neither completed nor expired.

        Raises
        ------
        ModelError
            For unknown profile ids.
        """
        registration = self._registrations.get(profile_id)
        if registration is None:
            raise ModelError(f"unknown profile id {profile_id}")
        registration.active = False

    def follow(self, client: Client, initial: Iterable[Profile],
               plan: Iterable) -> Iterator[None]:
        """Register ``initial``, then apply ``plan`` as the clock moves.

        A generator: it yields once before each chronon, and the caller
        steps the proxy (:meth:`step`, or ``await astep()``) between
        yields. It stops once the clock reads ``epoch.last``, so the
        caller's :meth:`run` / ``arun()`` that follows only flushes.

        ``plan`` is a :class:`~repro.simulation.churn.ChurnPlan` or any
        iterable of events with ``chronon``, ``action`` (``"add"`` /
        ``"remove"``), ``profile`` and ``profile_id``. An event lands
        while the clock reads its chronon: chronon order first, plan
        order within a chronon. One past ``epoch.last`` never fires, an
        ``add`` at ``epoch.last`` expires on arrival, and a ``remove``
        of a profile already cancelled does nothing. These are the
        semantics :func:`~repro.simulation.churn.lower_plan` mirrors.

        Raises
        ------
        ModelError
            On the first ``next`` when the proxy has already stepped, and
            as an event applies: what :meth:`register_profile` /
            :meth:`unregister_profile` raise, or an unknown action.
        """
        if self._clock:
            raise ModelError(
                f"follow a plan from chronon 0, not {self._clock}")
        for profile in initial:
            self.register_profile(client, profile)
        last = self.epoch.last
        for event in sorted((event for event in plan if event.chronon <= last),
                            key=attrgetter("chronon")):
            while self._clock < event.chronon:
                yield
            if event.action == "add":
                self.register_profile(client, event.profile)
            elif event.action == "remove":
                registration = self._registrations.get(event.profile_id)
                if registration is None or registration.active:
                    self.unregister_profile(event.profile_id)
            else:
                raise ModelError(f"unknown churn action {event.action!r}")
        while self._clock < last:
            yield

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def clock(self) -> Chronon:
        """Last processed chronon (0 before the first step)."""
        return self._clock

    @property
    def schedule(self) -> Schedule:
        """The probe schedule executed so far."""
        return self._schedule

    def step(self) -> Chronon:
        """Process the next chronon; returns it.

        Raises
        ------
        ModelError
            When the epoch is exhausted.
        """
        chronon, budget_now, candidates, decisions = self._begin_step()
        if decisions:
            round_ = execute_probes(decisions, chronon, budget_now,
                                    self._prober, retry=self.retry,
                                    breaker=self.breaker)
            self._finish_step(chronon, candidates, decisions, round_)
        return chronon

    def _begin_step(self) -> tuple[Chronon, int, list, list]:
        """Advance the clock and plan the chronon's probes.

        The synchronous :meth:`step` and the asyncio proxy share this
        phase and :meth:`_finish_step` — only the probe *execution*
        between them differs. Returns ``(chronon, budget, candidates,
        decisions)``; ``decisions`` is empty when there is nothing to
        probe. Raises :class:`ModelError` when the epoch is exhausted.
        """
        if self._clock >= self.epoch.last:
            raise ModelError(f"epoch exhausted at {self._clock}")
        chronon = self._clock + 1
        self._clock = chronon
        self.server.advance_to(chronon)

        self._pending.extend(self._arrivals.pop(chronon, ()))
        budget_now = self.budget.at(chronon)
        self._pending, doomed, candidates, decisions = plan_chronon(
            self._registered(self._pending), self.policy, chronon,
            budget_now, self.preemptive, self.breaker)
        self._expired += len(doomed)
        return chronon, budget_now, candidates, decisions

    def _registered(self, states: list[_RuntimeState]) -> list:
        """``states`` minus those of unregistered profiles, which count
        as dropped unless already resolved (a doomed carcass expired, a
        complete t-interval was notified)."""
        kept = []
        for state in states:
            if state.registration.active:
                kept.append(state)
            elif not (state.doom_reported or state.is_complete):
                self._dropped += 1
        return kept

    def _finish_step(self, chronon: Chronon, candidates, decisions,
                     round_) -> None:
        """Account one executed probe round and deliver its captures.

        ``round_`` is the :class:`~repro.faults.engine.ProbeRound` of
        either executor (only the async one hedges).
        """
        self._probes_failed += round_.failures
        self._retries += round_.retries
        self._hedges += round_.hedges
        outcomes = round_.outcomes
        for candidate, completed in settle_chronon(
                decisions, outcomes, candidates, chronon, self._schedule):
            state = candidate.state
            self._capture(state, candidate.ei,
                          outcomes[candidate.ei.resource_id].snapshot)
            if completed:
                self._notify(state, chronon)

    def run(self, until: Chronon | None = None) -> ProxyStats:
        """Run to ``until`` (default: end of epoch) and return stats;
        an ``until`` past the epoch is a :class:`ModelError` up front."""
        target = self._target(until)
        while self._clock < target:
            self.step()
        if self._clock >= self.epoch.last:
            self._flush()
        return self.stats()

    def _target(self, until: Chronon | None) -> Chronon:
        """The chronon a run stops at, refused when past the epoch."""
        last = self.epoch.last
        if until is not None and until > last:
            raise ModelError(
                f"cannot run until={until}: the epoch ends at {last}")
        return last if until is None else until

    def _flush(self) -> None:
        """Resolve everything left at the end of the epoch: unresolved
        t-intervals expired (or were dropped by unregistration)."""
        for states in self._arrivals.values():
            self._pending.extend(states)
        self._arrivals.clear()
        self._pending, doomed = retire(self._registered(self._pending),
                                       EPOCH_OVER)
        self._expired += len(doomed)

    def _prober(self, resource_id: int, attempt: int) -> ProbeOutcome:
        """One pull request against the server, as a probe outcome."""
        return self.server.try_probe(resource_id, attempt=attempt)

    def _capture(self, state: _RuntimeState, ei,
                 snapshot: Snapshot) -> None:
        """Keep one captured EI's snapshot (the async proxy journals
        here)."""
        state.snapshots[ei.ei_id] = snapshot

    def _notify(self, state: _RuntimeState, chronon: Chronon) -> None:
        self._completed += 1
        registration = state.registration
        notification = Notification(
            client_id=registration.client.client_id,
            profile_name=registration.profile.name,
            profile_id=registration.profile_id,
            tinterval_id=state.eta.tinterval_id,
            completed_at=chronon,
            snapshots=tuple(s for s in state.snapshots
                            if s is not None),
        )
        self._publish(notification, state)

    def _publish(self, notification: Notification,
                 state: _RuntimeState) -> None:
        """Deliver one completed t-interval (async proxy journals here)."""
        state.registration.client.deliver(notification)

    def stats(self) -> ProxyStats:
        """Current accounting snapshot."""
        waiting = sum(
            sum(1 for state in states if state.registration.active)
            for states in self._arrivals.values())
        pending = waiting + sum(
            1 for state in self._pending
            if state.registration.active
            and not state.is_complete
            and not state.is_expired(self._clock))
        quarantined = (self.breaker.quarantined_count
                       if self.breaker is not None else 0)
        return ProxyStats(
            registered=self._registered_tintervals,
            completed=self._completed,
            expired=self._expired,
            dropped=self._dropped,
            pending=pending,
            probes_used=len(self._schedule),
            probes_failed=self._probes_failed,
            retries=self._retries,
            resources_quarantined=quarantined,
            hedges=self._hedges,
        )
