"""Online monitoring policies (Section 4.2 of the paper)."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".base": (
        "Candidate",
        "Policy",
        "PolicyLevel",
        "ProbeDecision",
        "ScoreKey",
        "TIntervalState",
        "filter_blocked",
        "key_of",
        "plan_chronon",
        "select_probes",
        "settle_chronon",
    ),
    ".baselines": (
        "CoveragePolicy",
        "FCFSPolicy",
        "LeastFlexibleFirstPolicy",
        "MostResidualFirstPolicy",
        "RandomPolicy",
        "StaticRankPolicy",
    ),
    ".medf": ("MEDFPolicy",),
    ".mrsf": ("MRSFPolicy",),
    ".registry": ("available_policies", "make_policy", "parse_policy_spec"),
    ".sedf": ("SEDFPolicy",),
})
