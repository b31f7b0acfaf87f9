"""The cross-shard scheduling control plane.

:class:`ShardCoordinator` is the *proxy-side* federation control plane:
consistent-hash assignment of resources to K proxy shards, per-shard
budget ledgers with deterministic work-stealing, and the per-chronon
merge of per-shard candidate proposals that keeps cross-shard
t-intervals scheduled exactly as a monolith would
(``docs/ALGORITHMS.md`` §15). The run it coordinates — the columnar
block kernel with this protocol as its select step — lives in
:mod:`repro.simulation.shard`.
"""

from __future__ import annotations

from typing import Sequence

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
    assigns resources to shards, the per-shard
    :class:`~repro.runtime.sharding.BudgetLedger`, and the per-chronon
    *merge* of per-shard candidate proposals. Each shard proposes its
    ``min(C_j, |owned pools|)`` best resource rank keys; the keys embed
    the full monolith tie-break order (and end in the resource id, so
    they are globally unique), which makes the merged global top
    ``C_j`` *exactly* the monolith engine's selection — gained
    completeness degradation is zero by construction, and the ledger's
    steal transfers record how budget flowed between shards to realize
    it.

    Scoring and ranking are the block kernel's
    (:mod:`repro.simulation.batch`);
    :func:`repro.simulation.shard.federated_run` makes one per run and
    runs it with the per-shard take and :meth:`merge_proposals` as its
    select step and :meth:`settle` once per chronon.
    """

    def __init__(self, shards: int, *, vnodes: int = 64) -> None:
        self.shards = shards
        self.ring = ConsistentHashRing(shards, vnodes)
        self.ledger = BudgetLedger(shards)
        self.probes_routed = [0] * shards

    def assign(self, num_resources: int) -> np.ndarray:
        """Owner shard of every resource id in ``[0, num_resources)``."""
        return self.ring.assign(num_resources)

    @staticmethod
    def merge_proposals(proposals: Sequence[tuple[np.ndarray, np.ndarray]],
                        budget: int) -> np.ndarray:
        """The global top-``budget`` pools across per-shard proposals.

        ``proposals`` holds each shard's ``(keys, pool_ids)`` — its
        owned pools' packed rank keys, best first. Keys are globally
        unique (they end in the resource id), so one ascending merge is
        a total order and the first ``budget`` entries are exactly the
        monolith's ``nsmallest``. Returns the winning pool ids, best
        first.
        """
        if budget <= 0 or not proposals:
            return np.zeros(0, dtype=np.int64)
        keys = np.concatenate([keys for keys, _pools in proposals])
        pools = np.concatenate([pools for _keys, pools in proposals])
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        order = np.argsort(keys)
        return pools[order[:min(budget, pools.size)]]

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
