"""Sharded proxy federation: a budget ledger booked off the one-lane block.

:func:`federated_run` models one online run as ``K`` proxy shards: the
consistent-hash ring assigns every resource — and with it the resource's
candidate pool — to a shard, and the capture, doom and M-EDF aggregates
are replicated on every shard, so a shard scores its pools exactly as a
monolith would. Every shard proposing its ``min(C_j, |owned pools|)``
best rank keys and a coordinator merging them to the global top ``C_j``
picks exactly the kernel's one take over all pools — keys end in the
resource id, so they are unique, and the ``nsmallest`` of a union is the
``nsmallest`` of per-shard ``nsmallest``s (``docs/ALGORITHMS.md`` §15;
``tests/simulation/test_federation_select.py``). So the federation's
schedule is the monolith's: the run is one lane of
:func:`~repro.simulation.batch.run_block`, probe-for-probe the reference
simulator's for every shard count, and the federation is its ledger —
each probing chronon's probes, counted per owner shard, booked on a
:class:`~repro.runtime.sharding.BudgetLedger` (nominal split, realized
demand, deterministic work-stealing). The federation books reliable
runs: a faulty run is ``run_block``'s or ``run_online``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.online.base import Policy
from repro.runtime.sharding import BudgetLedger, ConsistentHashRing, ShardLoad
from repro.simulation import batch
from repro.simulation.columnar import ColumnarInstance
from repro.simulation.result import SimulationResult

__all__ = ["FederatedResult", "federated_run"]


@dataclass(frozen=True)
class FederatedResult:
    """Outcome of one federated run plus the federation's accounting.

    ``result`` is the one-lane :func:`~repro.simulation.batch.run_block`
    result (and so the reference simulator's) for the same arguments.
    ``loads`` carries each shard's owned resources that the run probed,
    routed probes and budget ledger; ``stolen_budget`` totals the units
    moved by work-stealing.
    """

    result: SimulationResult
    shards: int
    loads: tuple[ShardLoad, ...]
    stolen_budget: int
    steal_transfers: int

    @property
    def gc(self) -> float:
        return self.result.gc


def federated_run(profiles: ProfileSet, epoch: Epoch,
                  budget: BudgetVector, policy: Policy, *,
                  preemptive: bool = True, shards: int = 4,
                  columnar: ColumnarInstance | None = None,
                  ) -> FederatedResult:
    """Run one online simulation as a K-shard proxy federation.

    Returns a :class:`FederatedResult` whose ``result`` is the one-lane
    :func:`~repro.simulation.batch.run_block` run — probe-for-probe
    ``run_online(..., engine="reference")``'s, for any shard count —
    plus the federation's per-shard loads and work-stealing ledger.

    Raises :class:`ValueError` for ``shards < 1`` before any chronon
    runs, and :class:`~repro.simulation.columnar.BatchUnsupported` for
    what the block refuses: policies without a score row and instances
    whose packed keys overflow — such runs need the reference simulator.
    """
    ring = ConsistentHashRing(shards)
    (result,) = batch.run_block(profiles, epoch,
                                [(policy, preemptive, budget)],
                                columnar=columnar)
    rids, chronons = result.schedule.columns()
    space = int(rids.max()) + 1 if rids.size else 0
    owner = ring.assign(space)
    # np.unique would load numpy.ma on a cold path: mark instead.
    seen = np.zeros(space, dtype=bool)
    seen[rids] = True
    # One row of per-shard demand for each chronon that probed.
    new = np.diff(chronons, prepend=0) != 0
    demand = np.bincount((np.cumsum(new) - 1) * shards + owner[rids],
                         minlength=int(new.sum()) * shards)
    ledger = BudgetLedger(shards)
    for T, row in zip(chronons[new].tolist(), demand.reshape(-1, shards)):
        ledger.settle(budget.at(T), row.tolist())
    return FederatedResult(
        result=result, shards=shards,
        loads=tuple(ledger.loads(
            resources=np.bincount(owner[seen], minlength=shards).tolist())),
        stolen_budget=ledger.transferred_units,
        steal_transfers=ledger.transfers)
