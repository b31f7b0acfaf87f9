"""The fault model: what can go wrong when the proxy pulls.

Volatile sources are not only volatile in *content* — the paper's eBay
AuctionWatch setting pulls from best-effort HTTP endpoints that drop
requests, time out, throttle aggressive pollers, and serve lagging
replicas. This module describes those behaviours declaratively
(:class:`FaultSpec`), turns a spec into a deterministic decision source
(:class:`FaultInjector`), and can record every decision as a
:class:`FaultRecord`.

Determinism is the design center: every random draw is keyed on
``(seed, channel, resource, chronon, attempt)`` through a stable string
seed, so outcomes do not depend on probe *order* and two runs with the
same spec reproduce each other exactly. With all probabilities at zero
and no outages a faulty run is indistinguishable from a reliable one.
A run's fault source is exactly a spec, an injector or ``None``
(:func:`fault_source`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import FaultError
from repro.core.timeline import Chronon
from repro.runtime.server import (
    PROBE_FAILED,
    PROBE_OK,
    PROBE_THROTTLED,
    ProbeStatus,
)

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "Outage",
    "keyed_draw",
]


def keyed_draw(*fields) -> float:
    """The uniform draw in ``[0, 1)`` keyed on ``fields``, joined by ``:``
    into one string seed: string seeds hash deterministically (sha512)
    across processes, tuple seeds fall back to salted ``hash()``."""
    return random.Random(":".join(map(str, fields))).random()


@dataclass(frozen=True, slots=True)
class Outage:
    """A scripted downtime window for one resource.

    The resource answers no probes for chronons in ``[start, last]``;
    ``last=None`` means the outage never ends (a dead resource).
    """

    resource_id: int
    start: Chronon
    last: Chronon | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise FaultError(f"outage start must be >= 0, got {self.start}")
        if self.last is not None and self.last < self.start:
            raise FaultError(
                f"outage for resource {self.resource_id} ends at "
                f"{self.last} before it starts at {self.start}")

    def covers(self, chronon: Chronon) -> bool:
        """True when the resource is down at ``chronon``."""
        if chronon < self.start:
            return False
        return self.last is None or chronon <= self.last


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Declarative description of a source's unreliability.

    Attributes
    ----------
    failure_probability:
        Chance that any single probe is dropped outright.
    timeout_probability:
        Chance that a probe times out (also a failure; kept separate so
        traces can distinguish the two).
    stale_probability:
        Chance that an answered probe observes the state as of
        ``stale_lag`` chronons ago (a lagging read replica).
    stale_lag:
        Replica lag, in chronons, for stale reads.
    per_resource:
        Per-resource overrides of ``failure_probability``.
    outages:
        Scripted downtime windows (see :class:`Outage`).
    max_probes_per_chronon:
        Server-side rate limit: requests past this count within one
        chronon are *throttled* (refused, budget still spent).
    seed:
        Seed of the deterministic draw keying.
    """

    failure_probability: float = 0.0
    timeout_probability: float = 0.0
    stale_probability: float = 0.0
    stale_lag: int = 1
    per_resource: Mapping[int, float] = field(default_factory=dict)
    outages: tuple[Outage, ...] = ()
    max_probes_per_chronon: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("failure_probability", "timeout_probability",
                     "stale_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {value}")
        for resource_id, value in self.per_resource.items():
            if not 0.0 <= value <= 1.0:
                raise FaultError(
                    f"per_resource[{resource_id}] must be in [0, 1], "
                    f"got {value}")
        if self.stale_lag < 0:
            raise FaultError(f"stale_lag must be >= 0, got {self.stale_lag}")
        if (self.max_probes_per_chronon is not None
                and self.max_probes_per_chronon < 0):
            raise FaultError("max_probes_per_chronon must be >= 0")
        # Overlapping windows for one resource would make the effective
        # downtime depend on tuple order (``covers`` stops at the first
        # hit) — reject them outright so a spec means one thing.
        by_resource: dict[int, list[Outage]] = {}
        for outage in self.outages:
            by_resource.setdefault(outage.resource_id, []).append(outage)
        for windows in by_resource.values():
            windows.sort(key=lambda o: o.start)
            for earlier, later in zip(windows, windows[1:]):
                if earlier.last is None or later.start <= earlier.last:
                    raise FaultError(
                        f"overlapping outage windows for resource "
                        f"{earlier.resource_id}: {earlier} overlaps "
                        f"{later}")

    @property
    def is_null(self) -> bool:
        """True when this spec can never produce a fault."""
        return (self.failure_probability == 0.0
                and self.timeout_probability == 0.0
                and self.stale_probability == 0.0
                and not any(self.per_resource.values())
                and not self.outages
                and self.max_probes_per_chronon is None)

    def failure_rate_for(self, resource_id: int) -> float:
        """Effective drop probability of one resource."""
        return self.per_resource.get(resource_id,
                                     self.failure_probability)


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """What the fault model decided for one probe attempt."""

    status: ProbeStatus
    fault: str | None = None
    stale: bool = False

    @property
    def ok(self) -> bool:
        return self.status == PROBE_OK


#: The common case, shared to avoid allocating it per probe.
OK_DECISION = FaultDecision(PROBE_OK)


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """One recorded fault decision — a line of an injector's trace."""

    chronon: Chronon
    resource_id: int
    attempt: int
    status: ProbeStatus
    fault: str | None = None
    stale: bool = False


class FaultInjector:
    """Deterministic fault decisions for probe attempts.

    Stateless across probes except for the per-chronon rate-limit
    counter; every probabilistic decision is a pure function of
    ``(seed, resource, chronon, attempt)``.

    Parameters
    ----------
    spec:
        The fault model to apply.
    record:
        When True (default) every decision is appended to :attr:`trace`,
        a list of :class:`FaultRecord` in decision order.
    """

    def __init__(self, spec: FaultSpec, record: bool = True) -> None:
        self.spec = spec
        self.trace: list[FaultRecord] = []
        self._record = record
        self._chronon: Chronon = 0
        self._requests_this_chronon = 0

    def begin_chronon(self, chronon: Chronon) -> None:
        """Reset per-chronon state (the server-side rate-limit window)."""
        self._chronon = chronon
        self._requests_this_chronon = 0

    def _draw(self, channel: str, resource_id: int, chronon: Chronon,
              attempt: int) -> float:
        return keyed_draw(self.spec.seed, channel, resource_id, chronon,
                          attempt)

    def decide(self, resource_id: int, chronon: Chronon,
               attempt: int = 0) -> FaultDecision:
        """The fault decision for one probe attempt."""
        spec = self.spec
        self._requests_this_chronon += 1
        decision = OK_DECISION
        if any(outage.resource_id == resource_id and outage.covers(chronon)
               for outage in spec.outages):
            decision = FaultDecision(PROBE_FAILED, fault="outage")
        elif (spec.max_probes_per_chronon is not None
                and self._requests_this_chronon
                > spec.max_probes_per_chronon):
            decision = FaultDecision(PROBE_THROTTLED, fault="rate-limit")
        else:
            rate = spec.failure_rate_for(resource_id)
            if rate > 0.0 and self._draw("drop", resource_id, chronon,
                                         attempt) < rate:
                decision = FaultDecision(PROBE_FAILED, fault="drop")
            elif (spec.timeout_probability > 0.0
                    and self._draw("timeout", resource_id, chronon,
                                   attempt) < spec.timeout_probability):
                decision = FaultDecision(PROBE_FAILED, fault="timeout")
            elif (spec.stale_probability > 0.0
                    and self._draw("stale", resource_id, chronon,
                                   attempt) < spec.stale_probability):
                decision = FaultDecision(PROBE_OK, fault="stale",
                                         stale=True)
        if self._record:
            self.trace.append(FaultRecord(
                chronon=chronon, resource_id=resource_id, attempt=attempt,
                status=decision.status, fault=decision.fault,
                stale=decision.stale))
        return decision


def fault_source(faults: FaultSpec | FaultInjector | None
                 ) -> FaultSpec | FaultInjector | None:
    """``faults`` itself if it is a fault source — a :class:`FaultSpec`,
    a :class:`FaultInjector` or ``None``; a :class:`TypeError` naming
    its type otherwise. Every run that takes a fault argument checks it
    here, so no other object reaches an engine."""
    if faults is None or type(faults) in (FaultSpec, FaultInjector):
        return faults
    raise TypeError(
        "a fault source is a FaultSpec, a FaultInjector or None, not "
        f"{type(faults).__name__}")


def injector_of(faults: FaultSpec | FaultInjector | None
                ) -> FaultInjector | None:
    """The decision source a run draws from: a spec gets a
    non-recording injector of its own, an injector is used as given."""
    if type(fault_source(faults)) is FaultSpec:
        return FaultInjector(faults, record=False)
    return faults
