"""One online run over a fixed profile set (Section 5.1's simulation).

:func:`run_online` runs a policy over an epoch and returns its
:class:`~repro.simulation.result.SimulationResult`: by default as a
one-lane columnar block, and as ``engine="reference"`` through the
system itself — the live :class:`~repro.runtime.proxy.MonitoringProxy`
of Section 3 over a trace-less origin, with one client registering
every profile at chronon 0. The paper's simulation environment and its
proxy run one loop (:func:`repro.online.base.plan_chronon` /
:func:`~repro.online.base.settle_chronon`), so the specification every
engine is held to is the proxy a client talks to.

Every run is deterministic: ties in policy scores break on fixed keys.
"""

from __future__ import annotations

import logging
import time

from repro.core.budget import BudgetVector
from repro.core.completeness import tally
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultInjector, FaultSpec
from repro.online.base import Policy
from repro.simulation import batch
from repro.simulation.columnar import BatchUnsupported
from repro.simulation.result import SimulationResult

__all__ = ["run_online"]

_log = logging.getLogger(__name__)


def run_online(profiles: ProfileSet, epoch: Epoch, budget: BudgetVector,
               policy: Policy, preemptive: bool = True,
               faults: FaultSpec | FaultInjector | None = None,
               retry: RetryConfig | None = None,
               breaker: CircuitBreaker | None = None,
               engine: str = "batch") -> SimulationResult:
    """One online run: a one-lane columnar block, or the live proxy.

    ``engine="batch"`` (default) runs the policy as the only lane of
    :func:`~repro.simulation.batch.run_block` (the harness groups whole
    lineups into one block), fault layer included (``faults`` /
    ``retry`` / ``breaker`` ride along as a
    :class:`~repro.simulation.batch.FaultLane`). What the columns cannot
    encode — a policy that overrides ``score``, a subclassed breaker,
    keys beyond 62 bits — goes to ``engine="reference"``, and
    an INFO record on this module's logger says why.

    ``engine="reference"`` is the live proxy: one client registers every
    profile of ``profiles`` in order, so each keeps its id (an empty one
    too, monitoring nothing), on a
    :class:`~repro.runtime.proxy.MonitoringProxy` over a trace-less
    :class:`~repro.runtime.server.OriginServer` — wrapped in an
    :class:`~repro.faults.server.UnreliableServer` when there is a fault
    source — and the proxy runs to the end of the epoch. The schedule,
    the report (the client's notifications) and the counters are the
    proxy's. A fault source other than a spec, an injector or ``None``
    is a :class:`TypeError` on either engine. Both give identical
    results (the conformance matrix).
    """
    if engine == "batch":
        fault = batch.FaultLane(faults, retry, breaker)
        try:
            return batch.run_block(
                profiles, epoch, [(policy, preemptive, budget, 0, fault)])[0]
        except BatchUnsupported as why:
            _log.info("run on the reference simulator, not the columns: "
                      "%s", why)
    elif engine != "reference":
        raise ValueError(
            f"unknown engine {engine!r} (expected 'batch' or 'reference')")
    # The live proxy loads only for a reference run.
    from repro.faults.server import UnreliableServer
    from repro.runtime.proxy import MonitoringProxy
    from repro.runtime.server import OriginServer

    server = OriginServer()
    if faults is not None:
        server = UnreliableServer(server, faults)
    proxy = MonitoringProxy(server, epoch, budget, policy, preemptive,
                            retry=retry, breaker=breaker)
    client = proxy.register_client()
    for profile in profiles:
        proxy.register_profile(client, profile)
    started = time.perf_counter()
    stats = proxy.run()
    runtime = time.perf_counter() - started
    completed = {(note.profile_id, note.tinterval_id)
                 for note in client.mailbox}
    return SimulationResult(
        label=policy.label(preemptive),
        schedule=proxy.schedule,
        report=tally(profiles, lambda eta: (
            eta.profile_id, eta.tinterval_id) in completed),
        probes_used=stats.probes_used,
        expired=stats.expired,
        runtime_seconds=runtime,
        probes_failed=stats.probes_failed,
        retries=stats.retries,
        resources_quarantined=stats.resources_quarantined,
    )
