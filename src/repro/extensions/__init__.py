"""Extensions implementing the paper's §6 future-work items.

The other item, t-intervals satisfied by a subset of their EIs, is part
of the data model: :attr:`repro.core.intervals.TInterval.need`.
"""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".utilities": (
        "UtilityWeightedPolicy",
        "UtilityWeights",
        "run_weighted",
        "weighted_completeness",
    ),
})
