"""Async probe execution: deadlines, semaphores, backoff, hedging.

The asyncio counterpart of :func:`repro.faults.engine.execute_probes`.
One chronon's probe decisions fan out as coroutines; each request is
bounded by a per-probe deadline, throttled by a per-server concurrency
semaphore, retried after a deterministic full-jitter backoff delay, and
— for resources exiting circuit-breaker quarantine — optionally *hedged*
with a second speculative request so one slow trial probe cannot stall
the quarantine exit.

Budget safety is the design center: every request (first attempt, retry,
hedge) must reserve a unit from a shared :class:`BudgetLedger` before it
is issued, and the reservation check is synchronous (no await points),
so concurrent probe completions can never overspend the chronon's
``C_j``. Accounting is merged in decision order after all coroutines
finish, keeping the returned round deterministic under arbitrary
completion interleavings.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from repro.core.errors import FaultError
from repro.core.timeline import Chronon
from repro.faults.breaker import BackoffPolicy, CircuitBreaker
from repro.faults.engine import ProbeRound
from repro.runtime.server import PROBE_FAILED, ProbeOutcome

__all__ = [
    "AsyncProbeRound",
    "BudgetLedger",
    "ServerSemaphores",
    "execute_probes_async",
]

#: ``(resource_id, attempt)`` -> awaitable probe outcome.
AsyncProber = Callable[[int, int], Awaitable[Any]]

#: Attempt index used for the hedge request of a half-open trial probe.
#: Half-open resources get no in-chronon retries (a failed trial re-trips
#: the breaker immediately), so index 1 can never collide with a retry.
HEDGE_ATTEMPT = 1


class BudgetLedger:
    """Reentrant accounting of one chronon's request budget.

    All mutating operations are synchronous (they contain no await
    points), which under asyncio's run-to-completion scheduling makes
    check-and-reserve atomic: two coroutines can never both observe one
    remaining unit and both spend it.
    """

    __slots__ = ("_limit", "_spent")

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise FaultError(f"budget limit must be >= 0, got {limit}")
        self._limit = limit
        self._spent = 0

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def spent(self) -> int:
        return self._spent

    @property
    def remaining(self) -> int:
        return self._limit - self._spent

    def reserve(self, units: int = 1) -> None:
        """Spend ``units`` unconditionally; raises on overspend.

        Used for requests whose budget was already committed by probe
        selection (``select_probes`` returns at most ``C_j`` decisions).
        """
        if units < 0:
            raise FaultError(f"cannot reserve {units} units")
        if self._spent + units > self._limit:
            raise FaultError(
                f"budget overspend: {self._spent} spent + {units} "
                f"reserved > limit {self._limit}")
        self._spent += units

    def try_reserve(self, units: int = 1) -> bool:
        """Spend ``units`` if they fit; False (and no spend) otherwise."""
        if units < 0:
            raise FaultError(f"cannot reserve {units} units")
        if self._spent + units > self._limit:
            return False
        self._spent += units
        return True


class ServerSemaphores:
    """Per-server concurrency limits for in-flight probe requests.

    Parameters
    ----------
    limit:
        Maximum concurrent requests per origin server.
    owner_of:
        Optional ``resource_id -> server_name`` router (pass
        :meth:`~repro.runtime.federation.ServerFleet.owner_of` for a
        fleet); with ``None`` all resources share one semaphore.
    """

    def __init__(self, limit: int,
                 owner_of: Callable[[int], str] | None = None) -> None:
        if limit < 1:
            raise FaultError(f"concurrency limit must be >= 1, got {limit}")
        self.limit = limit
        self._owner_of = owner_of
        self._semaphores: dict[str, asyncio.Semaphore] = {}

    def for_resource(self, resource_id: int) -> asyncio.Semaphore:
        """The semaphore guarding the server owning ``resource_id``."""
        owner = self._owner_of(resource_id) if self._owner_of else ""
        semaphore = self._semaphores.get(owner)
        if semaphore is None:
            semaphore = self._semaphores[owner] = \
                asyncio.Semaphore(self.limit)
        return semaphore


@dataclass(slots=True)
class AsyncProbeRound(ProbeRound):
    """Probe-round accounting extended with async-only counters.

    Attributes
    ----------
    hedges:
        Redundant hedge requests whose duplicate success was discarded
        (budget spent, no extra data).
    deadline_timeouts:
        Requests cancelled by the per-probe deadline (these also count
        as ``failures``).
    """

    hedges: int = 0
    deadline_timeouts: int = 0


@dataclass(slots=True)
class _ResourceResult:
    """Per-decision accounting, merged in decision order afterwards."""

    outcome: Any = None
    attempts: int = 0
    failures: int = 0
    retries: int = 0
    hedges: int = 0
    deadline_timeouts: int = 0


async def execute_probes_async(
        decisions: Sequence[Any], chronon: Chronon, budget: int,
        prober: AsyncProber, *,
        backoff: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        deadline: float | None = None,
        semaphores: ServerSemaphores | None = None,
        hedge_delay: float | None = None) -> AsyncProbeRound:
    """Execute one chronon's probe decisions concurrently.

    Mirrors :func:`repro.faults.engine.execute_probes` semantics — first
    attempts are pre-paid by selection, retries spend leftover budget,
    failures and successes feed the breaker, a mid-chronon trip stops a
    resource's retries — with four async extensions:

    * every request is bounded by ``deadline`` seconds
      (:func:`asyncio.wait_for`); an expired request counts as a failed
      probe with fault ``"deadline"``;
    * requests to one server are capped by ``semaphores``;
    * each retry first sleeps a deterministic full-jitter ``backoff``
      delay keyed on ``(resource, chronon, attempt)``;
    * when ``hedge_delay`` is set and the breaker reports a resource
      *half-open*, its quarantine-exit trial is hedged: if the primary
      request has not answered after ``hedge_delay`` seconds, a second
      request races it (spending one leftover budget unit). Both
      answers are awaited and accounted in a fixed primary-then-hedge
      order, so accounting stays deterministic however the race lands.

    On a fault-free schedule (no failures, no quarantine) the returned
    accounting is identical to the synchronous engine's.
    """
    round_ = AsyncProbeRound()
    ledger = BudgetLedger(budget)
    ledger.reserve(len(decisions))
    max_retries = backoff.max_retries if backoff is not None else 0

    async def _request(resource_id: int, attempt: int,
                      result: _ResourceResult) -> Any:
        """Issue one (already budget-reserved) request."""
        result.attempts += 1
        guard = (semaphores.for_resource(resource_id)
                 if semaphores is not None else None)
        if guard is not None:
            await guard.acquire()
        try:
            if deadline is not None:
                try:
                    return await asyncio.wait_for(
                        prober(resource_id, attempt), timeout=deadline)
                except asyncio.TimeoutError:
                    result.deadline_timeouts += 1
                    return ProbeOutcome(
                        resource_id=resource_id, chronon=chronon,
                        status=PROBE_FAILED, fault="deadline",
                        attempt=attempt)
            return await prober(resource_id, attempt)
        finally:
            if guard is not None:
                guard.release()

    def _account(resource_id: int, outcome: Any,
                 result: _ResourceResult) -> bool:
        """Feed breaker and counters with one answer; True when ok."""
        if outcome.ok:
            if breaker is not None:
                breaker.record_success(resource_id)
            return True
        result.failures += 1
        if breaker is not None:
            breaker.record_failure(resource_id, chronon)
        return False

    async def _hedged_trial(resource_id: int,
                            result: _ResourceResult) -> Any:
        """Race a half-open trial probe against a delayed hedge."""
        primary = asyncio.ensure_future(
            _request(resource_id, 0, result))
        await asyncio.wait({primary}, timeout=hedge_delay)
        if primary.done() or not ledger.try_reserve():
            outcome = await primary
            return outcome if _account(resource_id, outcome, result) \
                else None
        hedge = asyncio.ensure_future(
            _request(resource_id, HEDGE_ATTEMPT, result))
        primary_outcome, hedge_outcome = await asyncio.gather(
            primary, hedge)
        # Fixed primary-then-hedge accounting order keeps the breaker
        # and the counters independent of which answer landed first.
        primary_ok = _account(resource_id, primary_outcome, result)
        hedge_ok = hedge_outcome.ok
        if hedge_ok and primary_ok:
            result.hedges += 1  # duplicate answer, budget burned
            return primary_outcome
        if hedge_ok:
            if breaker is not None:
                breaker.record_success(resource_id)
            return hedge_outcome
        result.failures += 1
        if breaker is not None:
            breaker.record_failure(resource_id, chronon)
        return primary_outcome if primary_ok else None

    async def _probe_one(resource_id: int) -> _ResourceResult:
        result = _ResourceResult()
        half_open = (breaker is not None and hedge_delay is not None
                     and breaker.is_half_open(resource_id, chronon))
        if half_open:
            result.outcome = await _hedged_trial(resource_id, result)
            # A failed trial re-tripped the breaker: no retries.
            return result
        outcome = await _request(resource_id, 0, result)
        if _account(resource_id, outcome, result):
            result.outcome = outcome
            return result
        for attempt in range(1, max_retries + 1):
            if breaker is not None and breaker.is_blocked(resource_id,
                                                          chronon):
                break
            if not ledger.try_reserve():
                break
            if backoff is not None:
                delay = backoff.delay_for(f"{resource_id}:{chronon}",
                                          attempt)
                if delay > 0.0:
                    await asyncio.sleep(delay)
            result.retries += 1
            outcome = await _request(resource_id, attempt, result)
            if _account(resource_id, outcome, result):
                result.outcome = outcome
                break
        return result

    results = await asyncio.gather(
        *(_probe_one(decision.resource_id) for decision in decisions))

    for decision, result in zip(decisions, results):
        resource_id = decision.resource_id
        round_.attempts += result.attempts
        round_.failures += result.failures
        round_.retries += result.retries
        round_.hedges += result.hedges
        round_.deadline_timeouts += result.deadline_timeouts
        if result.outcome is not None:
            round_.outcomes[resource_id] = result.outcome
        else:
            round_.failed.append(resource_id)
    if round_.attempts > budget:
        raise FaultError(  # pragma: no cover - ledger makes this dead
            f"async round issued {round_.attempts} requests over "
            f"budget {budget}")
    return round_
