"""Experiment harness and per-figure reproduction definitions."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".churn": (
        "ChurnConfig",
        "ChurnResult",
        "ChurnSweep",
        "ChurnSweepRow",
        "ClientOutcome",
        "churn_sweep",
        "jain_index",
        "run_churn",
    ),
    ".config": ("ExperimentConfig", "SCALES", "baseline"),
    ".faults": (
        "DEFAULT_FAILURE_RATES",
        "FAULT_POLICY_VARIANTS",
        "breaker_ablation",
        "fault_sweep",
        "run_fault_setting",
    ),
    ".figures": (
        "ALL_POLICY_VARIANTS",
        "FigurePair",
        "figure3",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "table1",
    ),
    ".offline": ("OFFLINE_SOLVER_LABELS", "offline_comparison"),
    ".harness": (
        "OFFLINE_LABEL",
        "PolicyOutcome",
        "RunOutcome",
        "SweepResult",
        "make_instance",
        "run_setting",
        "sweep",
    ),
    ".reporting": ("Table", "render_table", "tables", "write_tables"),
})
