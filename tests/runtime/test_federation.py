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

    def test_settle_accumulates_routed_probes(self):
        coordinator = ShardCoordinator(2)
        coordinator.settle(2, [0, 2])
        coordinator.settle(2, [1, 1])
        assert coordinator.probes_routed == [1, 3]
        loads = coordinator.loads(resources=[4, 6])
        assert loads[0].probes_routed == 1
        assert loads[1].stolen_in == 1
        assert loads[1].resources == 6
