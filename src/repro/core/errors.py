"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FaultError",
    "ModelError",
    "ScheduleInfeasibleError",
    "SolverError",
    "SolverCapacityError",
    "TraceFormatError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class ModelError(ReproError):
    """Invalid model construction (profiles, intervals, budgets...)."""


class ScheduleInfeasibleError(ReproError):
    """A requested schedule violates the budget or epoch constraints."""


class SolverError(ReproError):
    """An offline solver failed to produce a solution."""


class SolverCapacityError(SolverError):
    """Instance too large for an exact solver's safety guard.

    Raised by the enumeration solver (Lemma 1 bound) and the MILP solver
    when the instance exceeds their configured size limits, instead of
    silently running for hours.
    """


class TraceFormatError(ReproError):
    """Malformed update-trace input (CSV loader and friends)."""


class WorkloadError(ReproError):
    """Invalid workload/profile-generation parameters."""


class FaultError(ReproError):
    """Invalid fault-injection configuration (specs, outages)."""
