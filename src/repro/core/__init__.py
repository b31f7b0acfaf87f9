"""Core model: time, resources, intervals, profiles, schedules, GC.

This package implements Section 3 of the paper — the formal objects that
every solver, policy, and experiment builds on.
"""

from repro.core.budget import BudgetVector
from repro.core.completeness import (
    CompletenessReport,
    evaluate_schedule,
    gained_completeness,
)
from repro.core.errors import (
    FaultError,
    FaultReplayError,
    ModelError,
    ProbeFailure,
    ReproError,
    ScheduleInfeasibleError,
    SolverCapacityError,
    SolverError,
    TraceFormatError,
    WorkloadError,
)
from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.profile import Profile, ProfileColumns, ProfileSet
from repro.core.resource import Resource, ResourceCatalog
from repro.core.schedule import Probe, Schedule
from repro.core.timeline import Chronon, Epoch
from repro.core.validation import (
    Diagnostic,
    ValidationReport,
    validate_instance,
)

__all__ = [
    "BudgetVector",
    "Chronon",
    "CompletenessReport",
    "Diagnostic",
    "Epoch",
    "ExecutionInterval",
    "FaultError",
    "FaultReplayError",
    "ModelError",
    "Probe",
    "Profile",
    "ProfileColumns",
    "ProfileSet",
    "ProbeFailure",
    "ReproError",
    "Resource",
    "ResourceCatalog",
    "Schedule",
    "ScheduleInfeasibleError",
    "SolverCapacityError",
    "SolverError",
    "TInterval",
    "TraceFormatError",
    "ValidationReport",
    "WorkloadError",
    "evaluate_schedule",
    "gained_completeness",
    "validate_instance",
]
