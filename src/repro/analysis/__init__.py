"""Analysis helpers: instance statistics and policy comparisons."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".compare": ("PolicyComparison", "compare_policies"),
    ".stats": ("InstanceStats", "compute_stats"),
})
