"""Simulation environment: the online proxy loop and result types."""

from repro.simulation.batch import batch_kind, run_block
from repro.simulation.churn import ChurnEvent, ChurnPlan, run_churned
from repro.simulation.columnar import BatchUnsupported, ColumnarInstance
from repro.simulation.proxy import ProxySimulator, run_online
from repro.simulation.result import SimulationResult
from repro.simulation.shard import FederatedResult, federated_run

__all__ = [
    "BatchUnsupported",
    "ChurnEvent",
    "ChurnPlan",
    "ColumnarInstance",
    "FederatedResult",
    "ProxySimulator",
    "SimulationResult",
    "batch_kind",
    "federated_run",
    "run_block",
    "run_churned",
    "run_online",
]
