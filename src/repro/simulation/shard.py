"""Sharded proxy federation as the select step of the block kernel.

:func:`federated_run` advances one online run as ``K`` proxy shards plus
a :class:`~repro.runtime.federation.ShardCoordinator`. The consistent-
hash ring assigns every resource — and with it the resource's candidate
pool — to a shard. T-intervals whose EIs span shards (allowed by the
paper's model) need *replicated state*: capture, doom and M-EDF
satisfiability aggregates are the same on every shard, kept in sync by a
per-chronon capture broadcast, so a shard scores its local EIs with
exactly the global state a monolith would use. In one process the
replicas are one copy and a pool's rank key depends on nothing but that
pool's entries and those aggregates, so the run is a one-lane block of
:mod:`repro.simulation.batch` — one chronon loop, one key pass, one
select.

The federation's select is the kernel's: every shard proposing the
``min(C_j, |owned pools|)`` best rank keys among the pools it owns and
the coordinator merging them to the global top ``C_j`` picks exactly
what the kernel's one take over all pools picks — the global
``nsmallest`` of a union is the ``nsmallest`` of per-shard
``nsmallest``s, since the keys end in the resource id and are unique
(``tests/simulation/test_federation_select.py`` checks the identity).
The merge holds no state and the ledgers read only the winners, so the
run selects once and the coordinator books each chronon's winners on
the per-shard ledgers: nominal
:func:`~repro.runtime.sharding.split_budget` shares, realized demand,
and the deterministic :func:`~repro.runtime.sharding.steal_plan`
transfers that moved unspendable residual budget to the most
oversubscribed shards.

A federated run is therefore **probe-for-probe identical to the
one-lane block and the reference simulator for every shard count** —
gained-completeness degradation is zero by construction — and the
ledgers record the work-stealing that realized the monolith schedule.

Fault layers (drops, outages, rate limits, retries, breaker) execute
coordinator-side through the kernel's fault plane. The shards advance
in-process: a forked worker pool was measured on the catalog (2 vCPUs,
K=4) at 2.2x *slower* than the in-process loop — the per-chronon
broadcast costs more than the proposals it parallelises — and removed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.online.base import Policy
from repro.runtime.federation import ShardCoordinator
from repro.runtime.sharding import ShardLoad
from repro.simulation.batch import (
    FaultLane,
    _advance,
    _finalize,
    _make_lanes,
)
from repro.simulation.columnar import ColumnarInstance
from repro.simulation.result import SimulationResult

__all__ = ["FederatedResult", "federated_run"]


@dataclass(frozen=True)
class FederatedResult:
    """Outcome of one federated run plus the federation's accounting.

    ``result`` is bit-identical to what a one-lane
    :func:`~repro.simulation.batch.run_block` (and the reference
    simulator) produces for the same arguments. ``loads`` carries each
    shard's owned-resource count, routed probes and budget ledger;
    ``stolen_budget`` totals the units moved by work-stealing.
    ``lower_seconds`` is the part of ``result.runtime_seconds`` spent
    lowering: every activity window the run built, plus the constructor
    unless the caller passed a prebuilt ``columnar=`` (whose own
    ``lower_seconds`` says what that cost).
    """

    result: SimulationResult
    shards: int
    loads: tuple[ShardLoad, ...]
    stolen_budget: int
    steal_transfers: int
    lower_seconds: float

    @property
    def gc(self) -> float:
        return self.result.gc


def federated_run(profiles: ProfileSet, epoch: Epoch,
                  budget: BudgetVector, policy: Policy, *,
                  preemptive: bool = True, shards: int = 4,
                  faults=None, retry=None, breaker=None,
                  columnar: ColumnarInstance | None = None,
                  ) -> FederatedResult:
    """Run one online simulation as a K-shard proxy federation.

    Returns a :class:`FederatedResult` whose ``result`` is
    probe-for-probe identical to a one-lane
    :func:`~repro.simulation.batch.run_block` and to
    ``run_online(..., engine="reference")`` for the same arguments — for
    any shard count — plus the federation's per-shard loads and
    work-stealing ledger.

    Raises :class:`~repro.simulation.columnar.BatchUnsupported` for
    policies without a score row (those that override ``score``) and
    instances whose packed keys overflow — such runs need the reference
    simulator.
    """
    started = time.perf_counter()
    coord = ShardCoordinator(shards)
    K = shards
    col = columnar if columnar is not None else \
        ColumnarInstance.build(profiles, epoch)
    fault = FaultLane(faults, retry, breaker)
    lanes = _make_lanes(col, [(policy, preemptive, budget, 0, fault)])
    owner = coord.assign(col.rid_space)

    def settle(k_arr, _rows, rids):
        coord.settle(int(k_arr[0]),
                     np.bincount(owner[rids], minlength=K).tolist())

    built, window_seconds = col.windows_built, col.window_seconds
    state = _advance(col, lanes, settle, keep=columnar is not None)
    (result,) = _finalize(col, lanes, *state, time.perf_counter() - started,
                          col.windows_built - built)
    probed = np.bincount(col.grp_rid, minlength=col.rid_space) > 0
    owned = np.bincount(owner[probed], minlength=K).tolist()
    return FederatedResult(
        result=result, shards=K, loads=tuple(coord.loads(resources=owned)),
        stolen_budget=coord.ledger.transferred_units,
        steal_transfers=coord.ledger.transfers,
        lower_seconds=col.window_seconds - window_seconds
        + (0.0 if columnar is not None else col.lower_seconds))
