"""repro — pull-based online monitoring of volatile data sources.

A faithful, self-contained reproduction of:

    Haggai Roitman, Avigdor Gal, Louiqa Raschid.
    "Satisfying Complex Data Needs using Pull-Based Online Monitoring of
    Volatile Data Sources." ICDE 2008.

Public API highlights
---------------------
Model:      :class:`Epoch`, :class:`ExecutionInterval`, :class:`TInterval`,
            :class:`Profile`, :class:`ProfileSet`, :class:`BudgetVector`,
            :class:`Schedule`, :func:`gained_completeness`.
Policies:   :class:`SEDFPolicy`, :class:`MRSFPolicy`, :class:`MEDFPolicy`
            (and baselines), run through :func:`run_online`.
Offline:    :class:`EnumerationSolver`, :class:`MILPSolver`,
            :class:`LocalRatioApproximation`.
Workloads:  :class:`ProfileGenerator`, :class:`AuctionWatchTemplate`,
            :class:`OverwriteRestriction`, :class:`WindowRestriction`.
Traces:     :class:`UpdateTrace`, :class:`PoissonUpdateModel`,
            :class:`FPNUpdateModel`, :class:`AuctionTraceSynthesizer`,
            :class:`FeedTraceSynthesizer`, :class:`StockMarketSynthesizer`.
"""

# numpy loads ``numpy.random`` on first attribute access. Load it with
# the package — as the scipy import did until the offline solvers began
# importing scipy on first use — so the first generated instance does
# not pay for it inside a timed run.
import numpy.random  # noqa: F401

from repro._lazy import export_table

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".analysis": (
        "InstanceStats",
        "PolicyComparison",
        "compare_policies",
        "compute_stats",
    ),
    ".faults": (
        "CircuitBreaker",
        "FaultInjector",
        "FaultSpec",
        "Outage",
        "ProbeOutcome",
        "RetryConfig",
        "UnreliableServer",
    ),
    ".runtime": (
        "Client",
        "MonitoringProxy",
        "Notification",
        "OriginServer",
        "Snapshot",
    ),
    ".core": (
        "BudgetVector",
        "Chronon",
        "CompletenessReport",
        "Epoch",
        "ExecutionInterval",
        "ModelError",
        "Probe",
        "Profile",
        "ProfileSet",
        "ReproError",
        "Resource",
        "ResourceCatalog",
        "Schedule",
        "ScheduleInfeasibleError",
        "SolverCapacityError",
        "SolverError",
        "TInterval",
        "TraceFormatError",
        "WorkloadError",
        "evaluate_schedule",
        "gained_completeness",
    ),
    ".offline": (
        "EnumerationSolver",
        "LocalRatioApproximation",
        "MILPSolver",
        "expand_to_unit_width",
    ),
    ".online": (
        "MEDFPolicy",
        "MRSFPolicy",
        "Policy",
        "SEDFPolicy",
        "make_policy",
        "parse_policy_spec",
    ),
    ".simulation": ("SimulationResult", "run_online"),
    ".traces": (
        "AuctionTraceSynthesizer",
        "FeedTraceSynthesizer",
        "FPNUpdateModel",
        "PeriodicUpdateModel",
        "PoissonUpdateModel",
        "StockMarketSynthesizer",
        "UpdateEvent",
        "UpdateTrace",
    ),
    ".workloads": (
        "AuctionWatchTemplate",
        "BoundedZipf",
        "GeneratorConfig",
        "OverwriteRestriction",
        "ProfileGenerator",
        "SingleResourceTemplate",
        "WindowRestriction",
    ),
})
__all__.append("__version__")
