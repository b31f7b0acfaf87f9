"""Consistent-hash sharding and budget work-stealing primitives.

The federation (:mod:`repro.simulation.shard`) splits a monolithic
proxy into ``K`` shards, each owning a slice of the per-resource
candidate index. This module holds the pure control-plane pieces, all
deterministic:

* :class:`ConsistentHashRing` — virtual-node consistent hashing of
  resource ids onto shards. Hashes are keyed ``blake2b`` digests of
  stable strings, so an assignment depends only on ``(shards, vnodes)``
  — never on process state, hash randomization, or platform — and
  adding a shard moves only the resources whose arc changes.
* :func:`split_budget` — the *nominal* per-shard split of one chronon's
  probe budget ``C_j``, remainder assigned in fixed shard priority
  order (ascending shard id).
* :func:`steal_plan` — the deterministic work-stealing protocol: a
  shard whose demand falls short of its nominal share donates the
  residual to the most oversubscribed shard, ties broken by lowest
  shard id, donors iterated in priority order. Runs are reproducible
  because every choice is a pure function of ``(nominal, demand)``.
* :class:`BudgetLedger` — per-shard accounting of nominal shares,
  spent probes and stolen budget across a run, with the conservation
  identities the property suite asserts.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BudgetLedger",
    "ConsistentHashRing",
    "ShardLoad",
    "split_budget",
    "steal_plan",
]


def _point(label: str) -> int:
    """A stable 64-bit ring coordinate for ``label``."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class ConsistentHashRing:
    """Consistent hashing of resources onto ``shards`` proxy shards.

    Each shard contributes ``vnodes`` virtual nodes; a key is owned by
    the shard of the first virtual node at or clockwise past the key's
    ring coordinate. More virtual nodes mean a more even split — with
    the default 64 the heaviest shard typically carries within ~15% of
    the mean for K <= 16.

    Parameters
    ----------
    shards:
        Number of shards (>= 1).
    vnodes:
        Virtual nodes per shard (>= 1).
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                points.append((_point(f"shard-{shard}#{vnode}"), shard))
        points.sort()
        self._hashes = [hash_ for hash_, _ in points]
        self._owners = [shard for _, shard in points]

    def owner_of(self, resource_id: int) -> int:
        """The shard owning one resource id."""
        coordinate = _point(f"resource-{resource_id}")
        at = bisect.bisect_left(self._hashes, coordinate)
        if at == len(self._hashes):
            at = 0
        return self._owners[at]

    def assign(self, num_resources: int) -> np.ndarray:
        """Owner shard of every resource id in ``[0, num_resources)``."""
        return np.fromiter(
            (self.owner_of(rid) for rid in range(num_resources)),
            dtype=np.int64, count=num_resources)


def split_budget(total: int, shards: int) -> list[int]:
    """Nominal per-shard split of one chronon's budget ``C_j``.

    Every shard gets ``total // shards``; the remainder goes to the
    lowest shard ids — the fixed priority order that keeps federated
    runs reproducible.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if total < 0:
        raise ValueError(f"budget must be >= 0, got {total}")
    base, remainder = divmod(total, shards)
    return [base + (1 if shard < remainder else 0)
            for shard in range(shards)]


def steal_plan(nominal: list[int],
               demand: list[int]) -> list[tuple[int, int, int]]:
    """Deterministic budget transfers covering every shard's deficit.

    ``nominal`` is the chronon's :func:`split_budget`; ``demand`` is how
    many probes each shard's owned resources actually won. Donors (with
    ``nominal > demand``) are walked in shard priority order; each
    donates to the currently most oversubscribed shard (largest
    remaining deficit, ties to the lowest shard id) until its surplus or
    all deficits are exhausted. Because total demand never exceeds the
    chronon budget, the plan always covers every deficit.

    Returns ``(donor, thief, amount)`` transfers with ``amount >= 1``.
    """
    if len(nominal) != len(demand):
        raise ValueError("nominal and demand must have equal length")
    deficits = [max(0, d - n) for n, d in zip(nominal, demand)]
    transfers: list[tuple[int, int, int]] = []
    if not any(deficits):
        return transfers
    for donor, (share, used) in enumerate(zip(nominal, demand)):
        surplus = share - used
        while surplus > 0:
            worst = max(deficits)
            if worst == 0:
                break
            thief = deficits.index(worst)
            amount = min(surplus, worst)
            transfers.append((donor, thief, amount))
            surplus -= amount
            deficits[thief] -= amount
    return transfers


@dataclass
class ShardLoad:
    """One shard's accumulated load and budget accounting."""

    shard: int
    resources: int = 0
    probes_routed: int = 0
    nominal_budget: int = 0
    stolen_in: int = 0
    stolen_out: int = 0

    @property
    def effective_budget(self) -> int:
        """Nominal share plus net stolen budget."""
        return self.nominal_budget + self.stolen_in - self.stolen_out


class BudgetLedger:
    """Per-shard budget accounting across a federated run.

    Each :meth:`settle` call books one chronon: the nominal split, the
    realized per-shard spend, and the :func:`steal_plan` transfers that
    rebalanced the two. Invariants (asserted by the property suite):

    * ``spent[k] <= nominal[k] + stolen_in[k] - stolen_out[k]`` for
      every shard, at every chronon and in total;
    * ``sum(spent) <= sum(nominal)`` — stealing moves budget, it never
      mints it.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.nominal = [0] * shards
        self.spent = [0] * shards
        self.stolen_in = [0] * shards
        self.stolen_out = [0] * shards
        self.transfers = 0
        self.transferred_units = 0

    def settle(self, budget: int,
               demand: list[int]) -> list[tuple[int, int, int]]:
        """Book one chronon; returns the chronon's steal transfers."""
        nominal = split_budget(budget, self.shards)
        plan = steal_plan(nominal, demand)
        for shard in range(self.shards):
            self.nominal[shard] += nominal[shard]
            self.spent[shard] += demand[shard]
        for donor, thief, amount in plan:
            self.stolen_out[donor] += amount
            self.stolen_in[thief] += amount
            self.transfers += 1
            self.transferred_units += amount
        return plan

    def loads(self, resources: list[int] | None = None) -> list[ShardLoad]:
        """The per-shard accounting as :class:`ShardLoad` rows: a shard's
        routed probes are its spend."""
        return [
            ShardLoad(
                shard=shard,
                resources=resources[shard] if resources is not None else 0,
                probes_routed=self.spent[shard],
                nominal_budget=self.nominal[shard],
                stolen_in=self.stolen_in[shard],
                stolen_out=self.stolen_out[shard],
            )
            for shard in range(self.shards)
        ]
