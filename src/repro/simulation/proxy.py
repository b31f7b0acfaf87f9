"""The online proxy simulator (Section 5.1's simulation environment).

At every chronon the proxy:

1. receives the t-intervals arriving at this chronon (a t-interval arrives
   at the earliest start of its EIs — the stream the paper denotes
   ``eta(j)``);
2. drops completed t-intervals and expires those that can no longer
   complete (an uncaptured EI's deadline passed);
3. builds the candidate EI bag ``cands(I)`` — uncaptured EIs active now;
4. asks the policy for up to ``C_j`` resources to probe (preemptive or
   non-preemptive selection);
5. executes the probes: *every* active candidate EI on a probed resource
   is captured, which is how intra-resource overlap is exploited.

Steps 2–4 are :func:`repro.online.base.plan_chronon`, step 5's
bookkeeping :func:`repro.online.base.settle_chronon` — the chronon lives
there, shared with the live proxy; here are the arrival index, the
fault injector's clock and the set of completed t-intervals.

The simulator is deterministic: ties in policy scores break on fixed keys.
"""

from __future__ import annotations

import logging
import time

from repro.core.budget import BudgetVector
from repro.core.completeness import tally
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule
from repro.core.timeline import Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.engine import execute_probes
from repro.faults.model import (
    OK_DECISION,
    FaultInjector,
    FaultSpec,
    injector_of,
)
from repro.online.base import (
    EPOCH_OVER,
    Policy,
    TIntervalState,
    plan_chronon,
    retire,
    settle_chronon,
)
from repro.simulation import batch
from repro.simulation.columnar import BatchUnsupported
from repro.simulation.result import SimulationResult

__all__ = ["ProxySimulator", "run_online"]

_log = logging.getLogger(__name__)


class ProxySimulator:
    """Simulates the proxy's online monitoring loop over an epoch.

    Parameters
    ----------
    profiles:
        Registered client profiles (the t-interval stream source).
    epoch:
        Epoch to simulate.
    budget:
        Probing budget vector.
    policy:
        Online policy scoring candidate EIs.
    preemptive:
        Run the policy preemptively (``True``, the paper's "(P)" variant)
        or non-preemptively ("(NP)").
    faults:
        Fault model applied to probes: a :class:`FaultSpec`, a
        :class:`FaultInjector` (a recording one logs every decision), or
        ``None`` for a reliable source; anything else is a
        :class:`TypeError`. Failed probes consume budget without
        capturing.
    retry:
        In-chronon retry allowance for failed probes, spending leftover
        budget; ``None`` disables retries.
    breaker:
        Circuit breaker quarantining persistently failing resources;
        ``None`` disables.
    """

    def __init__(self, profiles: ProfileSet, epoch: Epoch,
                 budget: BudgetVector, policy: Policy,
                 preemptive: bool = True,
                 faults: FaultSpec | FaultInjector | None = None,
                 retry: RetryConfig | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        self.profiles = profiles
        self.epoch = epoch
        self.budget = budget
        self.policy = policy
        self.preemptive = preemptive
        self.injector = injector_of(faults)
        self.retry = retry
        self.breaker = breaker

    def run(self) -> SimulationResult:
        """Execute the full epoch and return the run's result."""
        arrivals = self._arrival_index()
        started = time.perf_counter()

        active: list[TIntervalState] = []
        schedule = Schedule()
        completed: set[tuple[int, int]] = set()
        expired_total = 0
        fault_aware = (self.injector is not None
                       or self.breaker is not None
                       or self.retry is not None)
        probes_failed = 0
        retries = 0

        for chronon in self.epoch:
            if self.injector is not None:
                self.injector.begin_chronon(chronon)
            active.extend(arrivals.get(chronon, ()))
            budget_now = self.budget.at(chronon)
            active, doomed, candidates, decisions = plan_chronon(
                active, self.policy, chronon, budget_now, self.preemptive,
                self.breaker)
            expired_total += len(doomed)
            if not decisions:
                continue
            if fault_aware:
                round_ = execute_probes(
                    decisions, chronon, budget_now, self._prober(chronon),
                    retry=self.retry, breaker=self.breaker)
                probes_failed += round_.failures
                retries += round_.retries
                answered = round_.outcomes
            else:
                # A reliable source answers every request: no round.
                answered = {decision.resource_id for decision in decisions}
            completed.update(
                candidate.state.key for candidate, done in settle_chronon(
                    decisions, answered, candidates, chronon, schedule)
                if done)

        # Epoch over: whatever is left incomplete expired.
        expired_total += len(retire(active, EPOCH_OVER)[1])

        runtime = time.perf_counter() - started
        return SimulationResult(
            label=self.policy.label(self.preemptive),
            schedule=schedule,
            report=tally(self.profiles, lambda eta: (
                eta.profile_id, eta.tinterval_id) in completed),
            probes_used=len(schedule),
            expired=expired_total,
            runtime_seconds=runtime,
            probes_failed=probes_failed,
            retries=retries,
            resources_quarantined=(self.breaker.quarantined_count
                                   if self.breaker is not None else 0),
        )

    def _prober(self, chronon: int):
        """A prober over the fault injector (always ok without one)."""
        injector = self.injector
        if injector is None:
            return lambda resource_id, attempt: OK_DECISION
        return (lambda resource_id, attempt:
                injector.decide(resource_id, chronon, attempt))

    def _arrival_index(self) -> dict[int, list[TIntervalState]]:
        """t-intervals bucketed by their arrival chronon."""
        arrivals: dict[int, list[TIntervalState]] = {}
        for profile in self.profiles:
            rank = profile.rank
            for eta in profile:
                state = TIntervalState(eta, rank)
                # A t-interval starting past the epoch can never be
                # captured, but it must still be *counted*: clamp its
                # arrival to the last chronon so the end-of-epoch flush
                # records it as expired.
                arrival = min(eta.earliest_start, self.epoch.last)
                arrivals.setdefault(arrival, []).append(state)
        return arrivals


def run_online(profiles: ProfileSet, epoch: Epoch, budget: BudgetVector,
               policy: Policy, preemptive: bool = True,
               faults: FaultSpec | FaultInjector | None = None,
               retry: RetryConfig | None = None,
               breaker: CircuitBreaker | None = None,
               engine: str = "batch") -> SimulationResult:
    """One online run: a one-lane columnar block, or the specification.

    ``engine="batch"`` (default) runs the policy as the only lane of
    :func:`~repro.simulation.batch.run_block` (the harness groups whole
    lineups into one block), fault layer included (``faults`` /
    ``retry`` / ``breaker`` ride along as a
    :class:`~repro.simulation.batch.FaultLane`). What the columns cannot
    encode — a policy without a score row such as RANDOM, a subclassed
    breaker, keys beyond 62 bits — goes to
    ``engine="reference"``, the per-chronon :class:`ProxySimulator`
    above, and an INFO record on this module's logger says why. A fault
    source other than a spec, an injector or ``None`` is a
    :class:`TypeError` on either engine. Both give identical results
    (the conformance matrix); the reference is the executable
    specification.
    """
    if engine == "batch":
        fault = batch.FaultLane(faults, retry, breaker) \
            if (faults is not None or retry is not None
                or breaker is not None) else None
        try:
            return batch.run_block(
                profiles, epoch, [(policy, preemptive, budget, 0, fault)])[0]
        except BatchUnsupported as why:
            _log.info("run on the reference simulator, not the columns: "
                      "%s", why)
    elif engine != "reference":
        raise ValueError(
            f"unknown engine {engine!r} (expected 'batch' or 'reference')")
    return ProxySimulator(
        profiles, epoch, budget, policy, preemptive=preemptive,
        faults=faults, retry=retry, breaker=breaker).run()
