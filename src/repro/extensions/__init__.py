"""Extensions implementing the paper's §6 future-work items."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".partial": (
        "QuotaMap",
        "QuotaMRSFPolicy",
        "QuotaTIntervalState",
        "quota_completeness",
        "run_with_quotas",
    ),
    ".utilities": (
        "UtilityWeightedPolicy",
        "UtilityWeights",
        "run_weighted",
        "weighted_completeness",
    ),
})
