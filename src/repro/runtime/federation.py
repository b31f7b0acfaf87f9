"""The cross-shard scheduling control plane.

:class:`ShardCoordinator` is the *proxy-side* federation control plane:
consistent-hash assignment of resources to K proxy shards and
per-shard budget ledgers with deterministic work-stealing
(``docs/ALGORITHMS.md`` §15). The run it coordinates — the columnar
block kernel, whose one select is what merging per-shard proposals
would pick — lives in :mod:`repro.simulation.shard`.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.sharding import (
    BudgetLedger,
    ConsistentHashRing,
    ShardLoad,
)

__all__ = ["ShardCoordinator"]


class ShardCoordinator:
    """Control plane of a K-shard proxy federation.

    Owns the :class:`~repro.runtime.sharding.ConsistentHashRing` that
    assigns resources to shards and the per-shard
    :class:`~repro.runtime.sharding.BudgetLedger`. Rank keys embed the
    full monolith tie-break order and end in the resource id, so they
    are globally unique, and merging each shard's ``min(C_j, |owned
    pools|)`` best keys would pick *exactly* the monolith's selection:
    scoring, ranking and that selection are the block kernel's
    (:mod:`repro.simulation.batch`), and the ledger's steal transfers
    record how budget flowed between shards to realize it.

    :func:`repro.simulation.shard.federated_run` makes one per run and
    calls :meth:`settle` once per chronon with the winners.
    """

    def __init__(self, shards: int, *, vnodes: int = 64) -> None:
        self.shards = shards
        self.ring = ConsistentHashRing(shards, vnodes)
        self.ledger = BudgetLedger(shards)
        self.probes_routed = [0] * shards

    def assign(self, num_resources: int) -> np.ndarray:
        """Owner shard of every resource id in ``[0, num_resources)``."""
        return self.ring.assign(num_resources)

    def settle(self, budget: int,
               demand: list[int]) -> list[tuple[int, int, int]]:
        """Book one chronon's budget: nominal split, spend, stealing."""
        for shard, count in enumerate(demand):
            self.probes_routed[shard] += count
        return self.ledger.settle(budget, demand)

    def loads(self, resources: list[int] | None = None) -> list[ShardLoad]:
        """Per-shard load and budget accounting so far."""
        return self.ledger.loads(probes_routed=self.probes_routed,
                                 resources=resources)
