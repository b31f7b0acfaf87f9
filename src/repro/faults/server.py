"""An origin server that misbehaves the way real feeds do.

:class:`UnreliableServer` wraps any :class:`~repro.runtime.server.
OriginServer` and subjects its probes to a fault source — a
:class:`~repro.faults.model.FaultSpec` or a
:class:`~repro.faults.model.FaultInjector` over one: dropped requests,
timeouts, scripted outages, server-side rate limiting, and stale reads
from a lagging replica. The wrapped server's state machine (clock,
pending updates, publishing) is untouched — only the *observation* path
degrades: :meth:`try_probe`, the one surface a proxy calls, returns a
:class:`~repro.runtime.server.ProbeOutcome`.

With a null spec the wrapper is transparent: every probe succeeds with
exactly the snapshot the inner server would have served. Wrapped around
a trace-less server, it is the fault layer of
``run_online(engine="reference")``.
"""

from __future__ import annotations

from repro.core.timeline import Chronon
from repro.faults.model import FaultInjector, FaultSpec, injector_of
from repro.runtime.server import (
    PROBE_OK,
    OriginServer,
    ProbeOutcome,
    Snapshot,
)
from repro.traces.events import UpdateEvent

__all__ = ["UnreliableServer"]


class UnreliableServer:
    """A fault-injecting wrapper over an origin server.

    Parameters
    ----------
    server:
        The reliable server being wrapped.
    faults:
        The fault source (:func:`~repro.faults.model.fault_source`): a
        :class:`FaultSpec`, drawn through a non-recording injector of
        its own; a :class:`FaultInjector`, used as given (a recording
        one keeps the decision log); or ``None``, a null spec.
    """

    def __init__(self, server: OriginServer,
                 faults: FaultSpec | FaultInjector | None = None) -> None:
        self.inner = server
        self.injector = injector_of(
            FaultSpec() if faults is None else faults)
        # Applied updates per resource, for lagging-replica reads:
        # (chronon, version, payload) in application order.
        self._history: dict[int, list[tuple[Chronon, int, str]]] = {}

    # ------------------------------------------------------------------
    # OriginServer-compatible surface (state machine delegates)
    # ------------------------------------------------------------------

    @property
    def clock(self) -> Chronon:
        return self.inner.clock

    def publish(self, event: UpdateEvent) -> None:
        self.inner.publish(event)

    def advance_to(self, chronon: Chronon) -> list[UpdateEvent]:
        applied = self.inner.advance_to(chronon)
        for event in applied:
            history = self._history.setdefault(event.resource_id, [])
            version = history[-1][1] + 1 if history else 1
            history.append((event.chronon, version, event.payload))
        self.injector.begin_chronon(chronon)
        return applied

    def version_of(self, resource_id: int) -> int:
        return self.inner.version_of(resource_id)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def _stale_snapshot(self, resource_id: int, lag: int) -> Snapshot:
        """The resource's state as a replica ``lag`` chronons behind
        sees it."""
        as_of = self.inner.clock - lag
        state = (0, 0, "")
        for entry in self._history.get(resource_id, ()):
            if entry[0] > as_of:
                break
            state = entry
        return Snapshot(
            resource_id=resource_id,
            probed_at=self.inner.clock,
            version=state[1],
            updated_at=state[0],
            value=state[2],
        )

    def try_probe(self, resource_id: int, attempt: int = 0) -> ProbeOutcome:
        """Probe through the fault model; never raises."""
        chronon = self.inner.clock
        decision = self.injector.decide(resource_id, chronon, attempt)
        if not decision.ok:
            return ProbeOutcome(
                resource_id=resource_id, chronon=chronon,
                status=decision.status, snapshot=None,
                fault=decision.fault, attempt=attempt)
        if decision.stale:
            snapshot = self._stale_snapshot(resource_id,
                                            self.injector.spec.stale_lag)
        else:
            snapshot = self.inner.probe(resource_id)
        return ProbeOutcome(
            resource_id=resource_id, chronon=chronon, status=PROBE_OK,
            snapshot=snapshot, fault=decision.fault,
            stale=decision.stale, attempt=attempt)
