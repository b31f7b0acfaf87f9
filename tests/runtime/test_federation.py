"""Tests for the cross-shard control plane, ``ShardCoordinator``."""

import numpy as np

from repro.runtime import ShardCoordinator


class TestShardCoordinator:
    def test_assign_is_deterministic_and_complete(self):
        owners = ShardCoordinator(4).assign(100)
        again = ShardCoordinator(4).assign(100)
        assert np.array_equal(owners, again)
        assert owners.size == 100
        assert set(owners.tolist()) <= set(range(4))

    def test_merge_proposals_takes_global_best(self):
        proposals = [
            (np.array([3, 10]), np.array([30, 31])),
            (np.array([1, 20]), np.array([40, 41])),
            (np.array([2, 5]), np.array([50, 51])),
        ]
        winners = ShardCoordinator.merge_proposals(proposals, 3)
        assert winners.tolist() == [40, 50, 30]

    def test_merge_proposals_empty_cases(self):
        assert ShardCoordinator.merge_proposals([], 3).size == 0
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert ShardCoordinator.merge_proposals([empty], 3).size == 0
        proposals = [(np.array([1]), np.array([2]))]
        assert ShardCoordinator.merge_proposals(proposals, 0).size == 0

    def test_settle_accumulates_routed_probes(self):
        coordinator = ShardCoordinator(2)
        coordinator.settle(2, [0, 2])
        coordinator.settle(2, [1, 1])
        assert coordinator.probes_routed == [1, 3]
        loads = coordinator.loads(resources=[4, 6])
        assert loads[0].probes_routed == 1
        assert loads[1].stolen_in == 1
        assert loads[1].resources == 6
