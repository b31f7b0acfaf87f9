"""Stochastic EI generation: estimators, predicted traces, evaluation."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".estimators": (
        "AdaptiveEstimator",
        "FittedResource",
        "PeriodicityEstimator",
        "PoissonRateEstimator",
        "UpdateEstimator",
        "fit_trace",
    ),
    ".evaluation": ("KnowledgeGapResult", "evaluate_knowledge_gap"),
    ".prediction": ("ForecastUpdateModel",),
})
