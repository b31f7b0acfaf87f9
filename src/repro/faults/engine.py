"""Shared probe execution: the one retry cascade, over any prober.

The paper's budget ``C_j`` caps *requests*, so the order in which one
chronon spends them — every decision's first attempt, then each failed
resource's retries in decision order on the budget left over — is part
of the fault accounting that the simulator, the live proxies and the
block kernel must share (measured completeness and delivered
notifications may never disagree). That order is written once, as the
generator :func:`cascade`: it yields requests, is sent their answers,
and owns every counter, the breaker updates and the leftover budget.
Its drivers only answer: :func:`execute_probes` one request at a time,
:func:`repro.runtime.aio.engine.execute_probes_async` a step's requests
concurrently, the block kernel's fault plane through a lane's injector.

A prober maps ``(resource_id, attempt)`` to an outcome object exposing
``.ok`` (the runtime passes :meth:`OriginServer.try_probe`; the simulator
passes a closure over a :class:`~repro.faults.model.FaultInjector`).
This module imports neither, on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

from repro.core.errors import FaultError
from repro.core.timeline import Chronon
from repro.faults.breaker import CircuitBreaker, RetryConfig

__all__ = ["ProbeRound", "cascade", "drive", "execute_probes"]

#: (resource_id, attempt) -> outcome with an ``ok`` attribute.
Prober = Callable[[int, int], Any]

#: A step's requests out, each request's answers (in a fixed order) in,
#: the round's accounting returned.
Cascade = Generator[list[tuple[int, int]], Sequence[Sequence[Any]],
                    "ProbeRound"]


@dataclass(slots=True)
class ProbeRound:
    """Accounting of one chronon's probe execution.

    Attributes
    ----------
    outcomes:
        Final successful outcome per resource (first ok answer wins).
    failed:
        Resources that stayed failed after all retries, in decision
        order.
    attempts:
        Total requests sent (budget consumed this chronon).
    failures:
        Non-ok answers (failed + throttled), including failed retries.
    retries:
        Attempts beyond the first per resource.
    hedges:
        Ok answers after an ok answer to the same request (a hedged
        half-open trial whose duplicate was discarded: budget spent,
        no extra data).
    """

    outcomes: dict[int, Any] = field(default_factory=dict)
    failed: list[int] = field(default_factory=list)
    attempts: int = 0
    failures: int = 0
    retries: int = 0
    hedges: int = 0


def cascade(resource_ids: Sequence[int], chronon: Chronon, budget: int,
            max_retries: int = 0,
            breaker: CircuitBreaker | None = None) -> Cascade:
    """One chronon's probe order, as steps of ``(resource_id, attempt)``.

    Step 0 is every decision's first attempt, already paid for by
    :func:`~repro.online.base.select_probes` (which returns at most
    ``budget`` decisions; more is a :class:`FaultError`). After it each
    failed resource, in decision order, retries one request per step, up
    to ``max_retries`` times, while ``budget - attempts`` is positive
    and the breaker does not block it — a resource whose breaker trips
    mid-chronon gets no further retries.

    Each step is sent one answer sequence per request. A second answer
    to one request is a hedge: an ok answer after an ok answer counts
    in ``hedges``; every other answer feeds the counters and the
    breaker. Returns the :class:`ProbeRound`.
    """
    if len(resource_ids) > budget:
        raise FaultError(
            f"budget overspend: {len(resource_ids)} decisions > "
            f"budget {budget}")
    round_ = ProbeRound()

    def settle(resource_id: int, answers: Sequence[Any]) -> bool:
        ok = False
        for outcome in answers:
            round_.attempts += 1
            if not outcome.ok:
                round_.failures += 1
                if breaker is not None:
                    breaker.record_failure(resource_id, chronon)
            elif ok:
                round_.hedges += 1
            else:
                ok = True
                round_.outcomes[resource_id] = outcome
                if breaker is not None:
                    breaker.record_success(resource_id)
        return ok

    firsts = yield [(resource_id, 0) for resource_id in resource_ids]
    failed = [resource_id for resource_id, answers
              in zip(resource_ids, firsts)
              if not settle(resource_id, answers)]
    for resource_id in failed:
        for attempt in range(1, max_retries + 1):
            if round_.attempts >= budget or (
                    breaker is not None
                    and breaker.is_blocked(resource_id, chronon)):
                break
            round_.retries += 1
            answers, = yield [(resource_id, attempt)]
            if settle(resource_id, answers):
                break
        if resource_id not in round_.outcomes:
            round_.failed.append(resource_id)
    return round_


def drive(steps: Cascade, prober: Prober) -> ProbeRound:
    """Run a :func:`cascade` to its end, one ``prober`` call a request."""
    answers = None
    try:
        while True:
            answers = [(prober(*request),) for request in steps.send(answers)]
    except StopIteration as done:
        return done.value


def execute_probes(decisions: Sequence[Any], chronon: Chronon,
                   budget: int, prober: Prober,
                   retry: RetryConfig | None = None,
                   breaker: CircuitBreaker | None = None) -> ProbeRound:
    """Execute one chronon's probe decisions against a prober: the
    :func:`cascade` of their resources, driven one request at a time."""
    return drive(cascade([decision.resource_id for decision in decisions],
                         chronon, budget,
                         retry.max_retries if retry is not None else 0,
                         breaker), prober)
