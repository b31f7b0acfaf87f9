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

# numpy loads these two submodules on first attribute access (~0.09 s
# together; ``np.unique`` reaches ``numpy.ma``). Load them with the
# package — as the scipy import did until the offline solvers began
# importing scipy on first use — so the first generated instance or
# lowering does not pay for them inside a timed run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.analysis import (
    InstanceStats,
    PolicyComparison,
    compare_policies,
    compute_stats,
)
from repro.dsl import compile_text, parse
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    FaultTrace,
    Outage,
    ProbeOutcome,
    RetryConfig,
    UnreliableServer,
)
from repro.forecast import (
    AdaptiveEstimator,
    ForecastUpdateModel,
    PeriodicityEstimator,
    PoissonRateEstimator,
    evaluate_knowledge_gap,
)
from repro.runtime import (
    Client,
    MonitoringProxy,
    Notification,
    OriginServer,
    Snapshot,
)
from repro.core import (
    BudgetVector,
    Chronon,
    CompletenessReport,
    Epoch,
    ExecutionInterval,
    ModelError,
    Probe,
    Profile,
    ProfileSet,
    ReproError,
    Resource,
    ResourceCatalog,
    Schedule,
    ScheduleInfeasibleError,
    SolverCapacityError,
    SolverError,
    TInterval,
    TraceFormatError,
    WorkloadError,
    evaluate_schedule,
    gained_completeness,
)
from repro.offline import (
    EnumerationSolver,
    LocalRatioApproximation,
    MILPSolver,
    expand_to_unit_width,
)
from repro.online import (
    MEDFPolicy,
    MRSFPolicy,
    Policy,
    SEDFPolicy,
    make_policy,
    parse_policy_spec,
)
from repro.simulation import ProxySimulator, SimulationResult, run_online
from repro.traces import (
    AuctionTraceSynthesizer,
    FeedTraceSynthesizer,
    FPNUpdateModel,
    PeriodicUpdateModel,
    PoissonUpdateModel,
    StockMarketSynthesizer,
    UpdateEvent,
    UpdateTrace,
)
from repro.workloads import (
    AuctionWatchTemplate,
    BoundedZipf,
    GeneratorConfig,
    OverwriteRestriction,
    ProfileGenerator,
    SingleResourceTemplate,
    WindowRestriction,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveEstimator",
    "CircuitBreaker",
    "Client",
    "FaultInjector",
    "FaultSpec",
    "FaultTrace",
    "Outage",
    "ProbeOutcome",
    "RetryConfig",
    "UnreliableServer",
    "ForecastUpdateModel",
    "MonitoringProxy",
    "Notification",
    "OriginServer",
    "PeriodicityEstimator",
    "PoissonRateEstimator",
    "Snapshot",
    "compile_text",
    "evaluate_knowledge_gap",
    "parse",
    "AuctionTraceSynthesizer",
    "AuctionWatchTemplate",
    "BoundedZipf",
    "BudgetVector",
    "Chronon",
    "CompletenessReport",
    "EnumerationSolver",
    "Epoch",
    "ExecutionInterval",
    "FPNUpdateModel",
    "FeedTraceSynthesizer",
    "GeneratorConfig",
    "InstanceStats",
    "PolicyComparison",
    "compare_policies",
    "compute_stats",
    "LocalRatioApproximation",
    "MEDFPolicy",
    "MILPSolver",
    "MRSFPolicy",
    "ModelError",
    "OverwriteRestriction",
    "PeriodicUpdateModel",
    "PoissonUpdateModel",
    "Policy",
    "Probe",
    "Profile",
    "ProfileGenerator",
    "ProfileSet",
    "ProxySimulator",
    "ReproError",
    "Resource",
    "ResourceCatalog",
    "SEDFPolicy",
    "Schedule",
    "ScheduleInfeasibleError",
    "SimulationResult",
    "SingleResourceTemplate",
    "SolverCapacityError",
    "SolverError",
    "StockMarketSynthesizer",
    "TInterval",
    "TraceFormatError",
    "UpdateEvent",
    "UpdateTrace",
    "WindowRestriction",
    "WorkloadError",
    "evaluate_schedule",
    "expand_to_unit_width",
    "gained_completeness",
    "make_policy",
    "parse_policy_spec",
    "run_online",
    "__version__",
]
