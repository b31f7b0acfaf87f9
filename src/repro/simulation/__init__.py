"""Simulation environment: the online proxy loop and result types."""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".batch": ("run_block",),
    ".churn": ("ChurnEvent", "ChurnPlan", "run_churned"),
    ".columnar": ("BatchUnsupported", "ColumnarInstance"),
    ".proxy": ("run_online",),
    ".result": ("SimulationResult",),
    ".shard": ("FederatedResult", "federated_run"),
})
