"""Offline solvers: exact enumeration, MILP, and the Local-Ratio scheme."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".conflict": (
        "demand_map",
        "overlap_adjacency",
        "self_infeasible",
        "unit_conflict_adjacency",
    ),
    ".enumeration": ("EnumerationSolver",),
    ".greedy": ("GreedyOfflineSolver",),
    ".local_ratio": ("LocalRatioApproximation", "fractional_guidance"),
    ".matching": ("ProbeAssigner",),
    ".milp": ("MILPSolver",),
    ".transform": ("UnitWidthExpansion", "expand_to_unit_width"),
})
