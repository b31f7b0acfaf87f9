"""Server federation and the cross-shard scheduling control plane.

Two layers live here:

* :class:`ServerFleet` — the paper's *data-source* federation: many
  origin servers, each managing its own resources (different markets,
  different feed providers), behind the single ``advance_to``/``probe``
  surface :class:`~repro.runtime.proxy.MonitoringProxy` expects.
* :class:`ShardCoordinator` — the *proxy-side* federation control
  plane: consistent-hash assignment of resources to K proxy shards,
  per-shard budget ledgers with deterministic work-stealing, and the
  per-chronon merge of per-shard candidate proposals that keeps
  cross-shard t-intervals scheduled exactly as a monolith would
  (``docs/ALGORITHMS.md`` §15). The run it coordinates — the columnar
  block kernel with this protocol as its select step — lives in
  :mod:`repro.simulation.shard`.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.timeline import Chronon
from repro.runtime.server import OriginServer, ProbeOutcome, Snapshot
from repro.runtime.sharding import (
    BudgetLedger,
    ConsistentHashRing,
    ShardLoad,
)
from repro.traces.events import UpdateEvent

__all__ = ["ServerFleet", "ShardCoordinator"]


class ServerFleet:
    """Routes resource probes to the owning origin server.

    Parameters
    ----------
    assignments:
        Mapping ``server_name -> (server, resource_ids)``. Each resource
        may belong to exactly one server.

    Raises
    ------
    ModelError
        If a resource is assigned to more than one server.
    """

    def __init__(self, assignments: dict[str, tuple[OriginServer,
                                                    list[int]]]) -> None:
        self._servers: dict[str, OriginServer] = {}
        self._owner: dict[int, str] = {}
        self._routed: dict[str, int] = {}
        self._answered: dict[str, int] = {}
        for name, (server, resource_ids) in assignments.items():
            self._servers[name] = server
            self._routed[name] = 0
            self._answered[name] = 0
            for resource_id in resource_ids:
                owner = self._owner.get(resource_id)
                if owner == name:
                    raise ModelError(
                        f"resource {resource_id} listed twice for "
                        f"server {name!r}")
                if owner is not None:
                    raise ModelError(
                        f"resource {resource_id} assigned to both "
                        f"{owner!r} and {name!r}")
                self._owner[resource_id] = name
        # Membership is fixed at construction, so the sorted name order
        # every advance/report walks is computed exactly once.
        self._names_sorted: tuple[str, ...] = tuple(sorted(self._servers))

    @property
    def clock(self) -> Chronon:
        """The fleet clock (min over members; 0 when empty)."""
        if not self._servers:
            return 0
        return min(server.clock for server in self._servers.values())

    def server_names(self) -> list[str]:
        """Registered server names, sorted."""
        return list(self._names_sorted)

    def server(self, name: str) -> OriginServer:
        """Access one member server.

        Raises
        ------
        ModelError
            For unknown names.
        """
        try:
            return self._servers[name]
        except KeyError:
            raise ModelError(f"unknown server {name!r}") from None

    def owner_of(self, resource_id: int) -> str:
        """The server owning a resource.

        Raises
        ------
        ModelError
            For unassigned resources.
        """
        try:
            return self._owner[resource_id]
        except KeyError:
            raise ModelError(
                f"resource {resource_id} is not assigned to any server"
            ) from None

    # ------------------------------------------------------------------
    # OriginServer-compatible surface
    # ------------------------------------------------------------------

    def advance_to(self, chronon: Chronon) -> list[UpdateEvent]:
        """Advance every member server; returns all applied events.

        Per-server applied lists are already in event order, so the
        global list is a k-way :func:`heapq.merge` — no re-sort of the
        full event volume. Ties keep member-name order, matching what a
        stable sort of the concatenation produced.
        """
        return list(heapq.merge(
            *[self._servers[name].advance_to(chronon)
              for name in self._names_sorted]))

    def probe(self, resource_id: int) -> Snapshot:
        """Probe the owning server for a resource's state."""
        owner = self.owner_of(resource_id)
        self._routed[owner] += 1
        snapshot = self._servers[owner].probe(resource_id)
        self._answered[owner] += 1
        return snapshot

    def try_probe(self, resource_id: int,
                  attempt: int = 0) -> ProbeOutcome:
        """Probe the owning server through its fault-aware surface.

        Members wrapped in :class:`~repro.faults.UnreliableServer` keep
        their fault behaviour; reliable members always answer.
        """
        owner = self.owner_of(resource_id)
        self._routed[owner] += 1
        outcome = self._servers[owner].try_probe(resource_id,
                                                 attempt=attempt)
        if outcome.ok:
            self._answered[owner] += 1
        return outcome

    def probes_routed(self) -> dict[str, int]:
        """Probes routed to each member server so far (per-provider
        load — the bandwidth the paper's budget models), whether or not
        the server answered."""
        return dict(self._routed)

    def probes_answered(self) -> dict[str, int]:
        """Probes each member server actually answered (successful
        snapshots); routed minus answered is the member's failed or
        short-circuited load."""
        return dict(self._answered)


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
    :func:`repro.simulation.shard.federated_run` runs it with the
    per-shard take and :meth:`merge_proposals` as its select step and
    :meth:`settle` once per chronon, and :meth:`run` is a convenience
    wrapper around it. A coordinator books one run: its ledger and
    routed-probe counts accumulate, so a second ``federated_run`` on the
    same object is refused.
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

    def run(self, profiles, epoch, budget, policy, **kwargs):
        """Run a federated simulation through this coordinator.

        Convenience wrapper for
        :func:`repro.simulation.shard.federated_run`; see there for the
        full signature.
        """
        from repro.simulation.shard import federated_run
        return federated_run(profiles, epoch, budget, policy,
                             coordinator=self, **kwargs)
