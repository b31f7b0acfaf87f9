"""Async probe execution: deadlines, semaphores, backoff, hedging.

The asyncio driver of :func:`repro.faults.engine.cascade`, the one
retry cascade the synchronous :func:`~repro.faults.engine.execute_probes`
drives too: it owns the order and every count, and this module only
sends each step's requests, all of a step in flight together. So the
async proxy spends its budget exactly as the synchronous one does;
concurrency lives *within* a step (step 0 is every first attempt, each
later step one retry), never across steps.

Around each request the driver adds its own layer: a per-probe
deadline, a concurrency semaphore, a deterministic
full-jitter backoff sleep before a retry, and — for a resource exiting
circuit-breaker quarantine — optionally a *hedge*: a second request
racing a slow trial, a second answer to the same request slot, paid
from the budget the decisions left spare.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from typing import Any, Awaitable, Callable, Sequence

from repro.core.timeline import Chronon
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.engine import ProbeRound, cascade
from repro.runtime.server import PROBE_FAILED, ProbeOutcome

__all__ = ["execute_probes_async"]

#: ``(resource_id, attempt)`` -> awaitable probe outcome.
AsyncProber = Callable[[int, int], Awaitable[Any]]

#: Attempt index used for the hedge request of a half-open trial probe.
#: Half-open resources get no in-chronon retries (a failed trial re-trips
#: the breaker immediately), so index 1 can never collide with a retry.
HEDGE_ATTEMPT = 1


async def execute_probes_async(
        decisions: Sequence[Any], chronon: Chronon, budget: int,
        prober: AsyncProber, *,
        retry: RetryConfig | None = None,
        breaker: CircuitBreaker | None = None,
        deadline: float | None = None,
        semaphore: asyncio.Semaphore | None = None,
        hedge_delay: float | None = None) -> ProbeRound:
    """Execute one chronon's probe decisions concurrently.

    Drives :func:`repro.faults.engine.cascade` — so the requests sent,
    their order across steps and all accounting are the synchronous
    engine's — gathering each step's requests concurrently, with four
    async extensions:

    * every request is bounded by ``deadline`` seconds
      (:func:`asyncio.wait_for`); an expired request counts as a failed
      probe with fault ``"deadline"``;
    * requests in flight at once are capped by ``semaphore``;
    * each retry first sleeps the deterministic full-jitter delay of
      ``retry`` (:meth:`RetryConfig.delay_for`) keyed on ``(resource,
      chronon, attempt)``;
    * when ``hedge_delay`` is set and the breaker reports a resource
      *half-open*, its quarantine-exit trial is hedged: if the primary
      request has not answered after ``hedge_delay`` seconds, a second
      request races it, spending one of the ``budget - len(decisions)``
      spare units. Both answers go to the cascade in a fixed
      primary-then-hedge order, so accounting stays deterministic
      however the race lands.
    """
    spare = budget - len(decisions)

    async def request(resource_id: int, attempt: int) -> Any:
        async with semaphore if semaphore is not None else nullcontext():
            try:
                return await asyncio.wait_for(prober(resource_id, attempt),
                                              deadline)
            except asyncio.TimeoutError:
                return ProbeOutcome(
                    resource_id=resource_id, chronon=chronon,
                    status=PROBE_FAILED, fault="deadline",
                    attempt=attempt)

    async def answers(resource_id: int, attempt: int) -> Sequence[Any]:
        nonlocal spare
        if attempt:
            delay = retry.delay_for(f"{resource_id}:{chronon}", attempt)
            if delay > 0.0:
                await asyncio.sleep(delay)
        elif (hedge_delay is not None and breaker is not None
                and breaker.is_half_open(resource_id, chronon)):
            primary = asyncio.ensure_future(request(resource_id, 0))
            await asyncio.wait({primary}, timeout=hedge_delay)
            if not primary.done() and spare > 0:
                spare -= 1
                return await asyncio.gather(
                    primary, request(resource_id, HEDGE_ATTEMPT))
            return (await primary,)
        return (await request(resource_id, attempt),)

    steps = cascade([decision.resource_id for decision in decisions],
                    chronon, budget,
                    retry.max_retries if retry is not None else 0,
                    breaker)
    got = None
    try:
        while True:
            slots = steps.send(got)
            got = await asyncio.gather(*(answers(*slot) for slot in slots))
    except StopIteration as done:
        return done.value
