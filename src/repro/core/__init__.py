"""Core model: time, resources, intervals, profiles, schedules, GC.

This package implements Section 3 of the paper — the formal objects that
every solver, policy, and experiment builds on.
"""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".budget": ("BudgetVector",),
    ".completeness": (
        "CompletenessReport",
        "evaluate_schedule",
        "gained_completeness",
    ),
    ".errors": (
        "FaultError",
        "ModelError",
        "ReproError",
        "ScheduleInfeasibleError",
        "SolverCapacityError",
        "SolverError",
        "TraceFormatError",
        "WorkloadError",
    ),
    ".intervals": ("ExecutionInterval", "TInterval"),
    ".profile": ("Profile", "ProfileColumns", "ProfileSet"),
    ".resource": ("Resource", "ResourceCatalog"),
    ".schedule": ("Probe", "Schedule"),
    ".timeline": ("Chronon", "Epoch"),
    ".validation": ("Diagnostic", "ValidationReport", "validate_instance"),
})
