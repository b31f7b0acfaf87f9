"""The asyncio monitoring proxy: concurrent probing over the shared core.

:class:`AsyncMonitoringProxy` subclasses the synchronous
:class:`~repro.runtime.proxy.MonitoringProxy`, so its chronon is the
same :func:`~repro.online.base.plan_chronon` /
:func:`~repro.online.base.settle_chronon` pair (through the inherited
``_begin_step`` / ``_finish_step``) — candidate construction, policy
selection, capture bookkeeping, and notification accounting are *the
same code*. Only probe execution differs: the
per-chronon probe set fans out as coroutines through
:func:`~repro.runtime.aio.engine.execute_probes_async`, with per-probe
deadlines, a concurrency semaphore, full-jitter backoff
retries, and hedged quarantine-exit trials. That executor drives the
synchronous proxy's own retry cascade, so until a deadline fires or a
trial is hedged the async proxy is capture-identical to the synchronous
one by construction, faults and retries included (and the conformance
matrix verifies it).

Two service-grade additions ride on top:

* an *event stream* — subscribers get every registration, cancellation,
  tick, and notification as a JSON-able event (the SSE endpoint of
  :mod:`repro.runtime.aio.service` is a thin adapter over this);
* a *write-ahead journal* — registrations, cancellations, in-flight
  captures, and completions hit the
  :class:`~repro.runtime.aio.journal.Journal`
  before their in-memory effect, and :meth:`AsyncMonitoringProxy.recover`
  rebuilds a killed proxy from the log: same clients, same profile ids,
  same completed t-intervals with their captured snapshots, mailboxes
  reconstructed, nothing delivered twice within a process lifetime.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.budget import BudgetVector
from repro.core.errors import FaultError, ModelError
from repro.core.profile import Profile
from repro.core.timeline import Chronon, Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.online.base import Policy
from repro.runtime.aio.engine import execute_probes_async
from repro.runtime.aio.journal import Journal, JournalState, replay_journal
from repro.runtime.clients import Client, Notification
from repro.runtime.proxy import MonitoringProxy, ProxyStats
from repro.runtime.server import OriginServer

__all__ = ["AsyncMonitoringProxy", "ProxyEvent", "notification_payload"]

#: ``(resource_id, chronon, attempt) -> seconds`` of simulated network
#: latency before a request reaches the server (the chaos harness's
#: "slow server" knob); None or 0.0 means the request is immediate.
LatencyFn = Callable[[int, Chronon, int], float]


@dataclass(frozen=True, slots=True)
class ProxyEvent:
    """One observable proxy event, shaped for JSON transport."""

    kind: str
    chronon: Chronon
    payload: dict


def notification_payload(notification: Notification) -> dict:
    """A notification as a JSON-able dict (the SSE wire shape)."""
    return {
        "client_id": notification.client_id,
        "profile_name": notification.profile_name,
        "profile_id": notification.profile_id,
        "tinterval_id": notification.tinterval_id,
        "completed_at": notification.completed_at,
        "snapshots": [
            {"resource_id": s.resource_id, "probed_at": s.probed_at,
             "version": s.version, "updated_at": s.updated_at,
             "value": s.value}
            for s in notification.snapshots
        ],
    }


class AsyncMonitoringProxy(MonitoringProxy):
    """An asyncio proxy service around the shared scheduling core.

    Parameters beyond :class:`~repro.runtime.proxy.MonitoringProxy`'s
    ----------------------------------------------------------------
    retry:
        As the synchronous proxy's, and the async executor also sleeps
        its jittered delay before each retry; ``None`` disables retries.
    deadline:
        Per-probe deadline in seconds; an expired request counts as a
        failed probe with fault ``"deadline"``. ``None`` disables.
    max_concurrency:
        In-flight request cap (at least 1).
    hedge_delay:
        When set, quarantine-exit trial probes are hedged with a second
        request after this many seconds (spending leftover budget).
    latency:
        Simulated per-request network latency (chaos harness knob).
    journal:
        Write-ahead journal; ``None`` disables durability.
    """

    def __init__(self, server: OriginServer, epoch: Epoch,
                 budget: BudgetVector, policy: Policy,
                 preemptive: bool = True,
                 retry: RetryConfig | None = None,
                 breaker: CircuitBreaker | None = None,
                 deadline: float | None = None,
                 max_concurrency: int = 8,
                 hedge_delay: float | None = None,
                 latency: LatencyFn | None = None,
                 journal: Journal | None = None) -> None:
        super().__init__(
            server, epoch, budget, policy, preemptive=preemptive,
            retry=retry, breaker=breaker)
        self.deadline = deadline
        self.hedge_delay = hedge_delay
        self.latency = latency
        self.journal = journal
        if max_concurrency < 1:
            raise FaultError(
                f"concurrency limit must be >= 1, got {max_concurrency}")
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self._step_lock = asyncio.Lock()
        self._subscribers: list[asyncio.Queue] = []
        self._completed_log: dict[tuple[int, int], Notification] = {}
        self._replaying = False

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        """A queue receiving every future :class:`ProxyEvent`."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def _emit(self, kind: str, payload: dict) -> None:
        if not self._subscribers:
            return
        event = ProxyEvent(kind=kind, chronon=self._clock,
                           payload=payload)
        for queue in self._subscribers:
            queue.put_nowait(event)

    # ------------------------------------------------------------------
    # Journaled registration API
    # ------------------------------------------------------------------

    def register_client(self, name: str = "", callback=None) -> Client:
        client = super().register_client(name, callback=callback)
        if self.journal is not None and not self._replaying:
            self.journal.record_client(client.client_id, client.name)
        return client

    def register_profile(self, client: Client, profile: Profile) -> int:
        if client.client_id not in self._clients:
            raise ModelError(f"unknown client {client.client_id}")
        if self.journal is not None and not self._replaying:
            # Write-ahead: the registration is durable before it is
            # visible (the id the superclass will assign is the next
            # counter value — asyncio's run-to-completion makes the
            # read-ahead race-free).
            self.journal.record_register(self._next_profile_id,
                                         client.client_id, profile)
        profile_id = super().register_profile(client, profile)
        self._emit("register", {"profile_id": profile_id,
                                "client_id": client.client_id,
                                "name": profile.name,
                                "tintervals": len(profile)})
        return profile_id

    def unregister_profile(self, profile_id: int) -> None:
        if (self.journal is not None and not self._replaying
                and profile_id in self._registrations):
            self.journal.record_unregister(profile_id)
        super().unregister_profile(profile_id)
        self._emit("unregister", {"profile_id": profile_id})

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def _aprobe(self, resource_id: int, attempt: int) -> Any:
        """One pull request as a coroutine (latency-injectable)."""
        if self.latency is not None:
            delay = self.latency(resource_id, self._clock, attempt)
            if delay:
                await asyncio.sleep(delay)
        return self._prober(resource_id, attempt)

    async def astep(self) -> Chronon:
        """Process the next chronon with concurrent probing.

        Reentrancy-safe: concurrent calls serialize on an internal lock,
        so a chronon tick can never be double-counted and budget
        accounting never interleaves between ticks.
        """
        async with self._step_lock:
            chronon, budget_now, candidates, decisions = \
                self._begin_step()
            if decisions:
                round_ = await execute_probes_async(
                    decisions, chronon, budget_now, self._aprobe,
                    retry=self.retry, breaker=self.breaker,
                    deadline=self.deadline,
                    semaphore=self._semaphore,
                    hedge_delay=self.hedge_delay)
                self._finish_step(chronon, candidates, decisions, round_)
            if self.journal is not None and not self._replaying:
                self.journal.record_tick(chronon)
            self._emit("tick", {"chronon": chronon,
                                "probes": len(decisions)})
            return chronon

    async def arun(self, until: Chronon | None = None,
                   tick_interval: float = 0.0) -> ProxyStats:
        """Run to ``until`` (default: end of epoch) and return stats.

        ``tick_interval`` seconds of real time separate chronons (0 for
        as-fast-as-possible, e.g. benchmarks and tests).
        """
        target = self._target(until)
        while self._clock < target:
            await self.astep()
            if tick_interval > 0.0:
                await asyncio.sleep(tick_interval)
        if self._clock >= self.epoch.last:
            self._flush()
        return self.stats()

    def _capture(self, state, ei, snapshot) -> None:
        # Write-ahead: in-flight progress is durable before a
        # completion can be published, so recovery resumes partially
        # captured t-intervals instead of restarting them.
        if self.journal is not None and not self._replaying:
            self.journal.record_capture(
                state.eta.profile_id, state.eta.tinterval_id,
                ei.ei_id, snapshot)
        super()._capture(state, ei, snapshot)

    def _publish(self, notification: Notification, state) -> None:
        # Write-ahead: the completion is durable before the client can
        # observe it.
        if self.journal is not None and not self._replaying:
            self.journal.record_complete(
                notification.profile_id, notification.tinterval_id,
                notification.completed_at, notification.snapshots)
        key = (notification.profile_id, notification.tinterval_id)
        self._completed_log[key] = notification
        state.registration.client.deliver(notification)
        self._emit("notification", notification_payload(notification))

    @property
    def completed_log(self) -> dict[tuple[int, int], Notification]:
        """Every delivered completion, keyed ``(profile_id,
        tinterval_id)`` — exactly-once by construction (one key, one
        notification)."""
        return dict(self._completed_log)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, journal_path, server: OriginServer, epoch: Epoch,
                budget: BudgetVector, policy: Policy,
                **kwargs) -> "AsyncMonitoringProxy":
        """Rebuild a proxy from its journal after a crash.

        The log is folded into registrations, cancellations, in-flight
        captures, and completions; the recovered proxy has the same
        clients (ids and names), the same profile ids, its clock at the
        last journaled tick, every journaled completion restored —
        snapshots included, re-delivered into the fresh client
        mailboxes, but *not* re-journaled — partially captured
        t-intervals resuming where they left off, and everything else
        pending again. Probe
        telemetry (schedule, failures, retries) is process state, not
        logical state, and is not reconstructed.

        The journal file keeps growing in place: the recovered proxy
        appends to the same log, so repeated crashes recover repeatedly.
        """
        state = replay_journal(journal_path)
        proxy = cls(server, epoch, budget, policy,
                    journal=Journal(journal_path), **kwargs)
        proxy._restore(state)
        return proxy

    def _restore(self, state: JournalState) -> None:
        self._replaying = True
        try:
            # Clock first: re-registrations must schedule arrivals
            # relative to where the epoch actually is. A finished epoch
            # replays them one chronon early — enqueued, so a journaled
            # completion finds its t-interval — and flushes the rest.
            clock = min(state.last_tick, self.epoch.last)
            self._clock = min(clock, self.epoch.last - 1)
            self.server.advance_to(clock)
            clients_by_id: dict[int, Client] = {}
            for client_id, name in state.clients:
                client = self.register_client(name)
                if client.client_id != client_id:
                    raise ModelError(
                        f"journal replay assigned client id "
                        f"{client.client_id}, expected {client_id}")
                clients_by_id[client_id] = client
            for entry in state.registrations:
                client = clients_by_id.get(entry.client_id)
                if client is None:
                    raise ModelError(
                        f"journal registration {entry.profile_id} "
                        f"references unknown client {entry.client_id}")
                assigned = self.register_profile(client, entry.profile)
                if assigned != entry.profile_id:
                    raise ModelError(
                        f"journal replay assigned profile id "
                        f"{assigned}, expected {entry.profile_id}")
            self._clock = clock
            for profile_id in sorted(state.unregistered):
                self.unregister_profile(profile_id)
            for key, snapshots in state.captures.items():
                if key not in state.completions:
                    self._restore_capture(key, snapshots)
            for completion in state.completions.values():
                self._restore_completion(completion)
            if clock >= self.epoch.last:
                self._flush()
        finally:
            self._replaying = False

    def _restore_capture(self, key: tuple[int, int],
                         snapshots: dict) -> None:
        """Replay journaled in-flight captures onto a pending state."""
        state = self._find_state(*key)
        if state is None:
            return  # e.g. cancelled before the crash
        for ei_id, snapshot in snapshots.items():
            if not state.captured[ei_id]:
                state.mark_captured(ei_id)
                state.snapshots[ei_id] = snapshot
        state.committed = True

    def _restore_completion(self, completion) -> None:
        key = (completion.profile_id, completion.tinterval_id)
        state = self._find_state(*key)
        if state is None:
            raise ModelError(
                f"journaled completion {key} has no registered "
                f"t-interval")
        for ei in state.eta:
            state.mark_captured(ei.ei_id)
            state.snapshots[ei.ei_id] = None
        for snapshot in completion.snapshots:
            for ei in state.eta:
                if (ei.resource_id == snapshot.resource_id
                        and state.snapshots[ei.ei_id] is None
                        and ei.start <= snapshot.probed_at <= ei.finish):
                    state.snapshots[ei.ei_id] = snapshot
                    break
        self._drop_from_queues(state)
        self._completed += 1
        notification = Notification(
            client_id=state.registration.client.client_id,
            profile_name=state.registration.profile.name,
            profile_id=completion.profile_id,
            tinterval_id=completion.tinterval_id,
            completed_at=completion.completed_at,
            snapshots=completion.snapshots,
        )
        self._completed_log[key] = notification
        state.registration.client.deliver(notification)

    def _find_state(self, profile_id: int, tinterval_id: int):
        for states in self._arrivals.values():
            for state in states:
                if (state.eta.profile_id == profile_id
                        and state.eta.tinterval_id == tinterval_id):
                    return state
        for state in self._pending:
            if (state.eta.profile_id == profile_id
                    and state.eta.tinterval_id == tinterval_id):
                return state
        return None

    def _drop_from_queues(self, state) -> None:
        for chronon, states in list(self._arrivals.items()):
            if state in states:
                states.remove(state)
                if not states:
                    del self._arrivals[chronon]
        if state in self._pending:
            self._pending.remove(state)
