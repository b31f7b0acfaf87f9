"""Simulation result types shared by the online proxy and offline runners."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.completeness import CompletenessReport
from repro.core.schedule import Schedule

__all__ = ["SimulationResult"]


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of one monitoring run (online or offline).

    Attributes
    ----------
    label:
        Human-readable identifier, e.g. ``"MRSF(P)"`` or
        ``"offline-approx"``.
    schedule:
        The probe schedule that was executed/produced. A block-kernel
        result builds it, and ``report``'s breakdowns, on first read.
    report:
        Capture accounting against the input profile set.
    probes_used:
        Total probes issued.
    expired:
        Number of t-intervals that expired uncaptured during the run
        (only meaningful for online runs; 0 otherwise).
    runtime_seconds:
        Wall-clock time spent deciding/solving (excludes workload
        generation).
    probes_failed:
        Pull requests that got no snapshot (drops, timeouts, outages,
        throttles — including failed retries); 0 for reliable runs.
    retries:
        In-chronon retry attempts issued after failed probes.
    resources_quarantined:
        Distinct resources the circuit breaker ever quarantined.
    extras:
        Free-form diagnostic counters.
    """

    label: str
    schedule: Schedule
    report: CompletenessReport
    probes_used: int
    expired: int = 0
    runtime_seconds: float = 0.0
    probes_failed: int = 0
    retries: int = 0
    resources_quarantined: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def gc(self) -> float:
        """Gained completeness of the run."""
        return self.report.gc

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (f"{self.label}: GC={self.gc:.4f} "
                f"({self.report.captured}/{self.report.total}), "
                f"probes={self.probes_used}, expired={self.expired}, "
                f"runtime={self.runtime_seconds:.3f}s")
        if self.probes_failed or self.retries or self.resources_quarantined:
            text += (f", failed={self.probes_failed}, "
                     f"retries={self.retries}, "
                     f"quarantined={self.resources_quarantined}")
        return text
