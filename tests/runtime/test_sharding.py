"""Tests for the consistent-hash ring and the budget-stealing ledger."""

import numpy as np
import pytest

from repro.runtime.sharding import (
    BudgetLedger,
    ConsistentHashRing,
    ShardLoad,
    split_budget,
    steal_plan,
)


class TestConsistentHashRing:
    def test_assignment_is_deterministic(self):
        a = ConsistentHashRing(4).assign(200)
        b = ConsistentHashRing(4).assign(200)
        assert np.array_equal(a, b)

    def test_every_resource_owned_by_a_valid_shard(self):
        owners = ConsistentHashRing(5, vnodes=32).assign(300)
        assert owners.min() >= 0
        assert owners.max() < 5

    def test_single_shard_owns_everything(self):
        assert set(ConsistentHashRing(1).assign(50).tolist()) == {0}

    def test_split_is_reasonably_balanced(self):
        owners = ConsistentHashRing(4, vnodes=64).assign(4000)
        counts = np.bincount(owners, minlength=4)
        # Virtual nodes keep the heaviest shard within ~2x of the mean.
        assert counts.max() <= 2 * 1000
        assert counts.min() > 0

    def test_adding_a_shard_only_moves_arcs(self):
        """Consistency: resources either keep their owner or move to
        the *new* shard — existing shards never trade resources."""
        before = ConsistentHashRing(4).assign(1000)
        after = ConsistentHashRing(5).assign(1000)
        moved = before != after
        assert set(after[moved].tolist()) <= {4}
        assert np.count_nonzero(moved) < 1000  # most stay put

    def test_owner_of_matches_assign(self):
        ring = ConsistentHashRing(3)
        owners = ring.assign(64)
        assert [ring.owner_of(rid) for rid in range(64)] == \
            owners.tolist()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="shards"):
            ConsistentHashRing(0)
        with pytest.raises(ValueError, match="vnodes"):
            ConsistentHashRing(2, vnodes=0)


class TestSplitBudget:
    def test_even_split(self):
        assert split_budget(8, 4) == [2, 2, 2, 2]

    def test_remainder_goes_to_lowest_ids(self):
        assert split_budget(7, 4) == [2, 2, 2, 1]
        assert split_budget(3, 5) == [1, 1, 1, 0, 0]

    def test_conserves_total(self):
        for total in range(0, 20):
            for shards in range(1, 7):
                assert sum(split_budget(total, shards)) == total

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="shards"):
            split_budget(4, 0)
        with pytest.raises(ValueError, match="budget"):
            split_budget(-1, 2)


class TestStealPlan:
    def test_no_deficit_no_transfers(self):
        assert steal_plan([2, 2], [1, 2]) == []

    def test_surplus_covers_single_deficit(self):
        assert steal_plan([2, 2], [0, 4]) == [(0, 1, 2)]

    def test_donors_walk_in_priority_order(self):
        # Shards 0 and 1 both have surplus; 0 donates first.
        assert steal_plan([2, 2, 0], [0, 1, 3]) == [(0, 2, 2), (1, 2, 1)]

    def test_largest_deficit_served_first(self):
        plan = steal_plan([4, 0, 0], [0, 1, 3])
        assert plan == [(0, 2, 3), (0, 1, 1)]

    def test_deficit_ties_break_to_lowest_shard(self):
        assert steal_plan([2, 0, 0], [0, 1, 1]) == [(0, 1, 1), (0, 2, 1)]

    def test_plan_is_deterministic(self):
        nominal = [3, 1, 0, 2]
        demand = [0, 2, 3, 1]
        assert steal_plan(nominal, demand) == steal_plan(nominal, demand)

    def test_covers_every_deficit_when_demand_fits_budget(self):
        nominal = [4, 2, 0, 0]
        demand = [0, 1, 3, 2]
        plan = steal_plan(nominal, demand)
        received = [0] * 4
        for _donor, thief, amount in plan:
            received[thief] += amount
        for shard in range(4):
            deficit = max(0, demand[shard] - nominal[shard])
            assert received[shard] == deficit

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            steal_plan([1, 2], [1])


class TestBudgetLedger:
    def test_settle_accumulates_and_conserves(self):
        ledger = BudgetLedger(3)
        ledger.settle(4, [0, 2, 2])
        ledger.settle(4, [3, 0, 1])
        assert sum(ledger.spent) <= sum(ledger.nominal)
        for shard in range(3):
            assert ledger.spent[shard] <= (
                ledger.nominal[shard] + ledger.stolen_in[shard]
                - ledger.stolen_out[shard])
        assert ledger.transferred_units == sum(ledger.stolen_in)
        assert sum(ledger.stolen_in) == sum(ledger.stolen_out)

    def test_loads_reports_every_shard(self):
        ledger = BudgetLedger(2)
        ledger.settle(2, [0, 2])
        loads = ledger.loads(resources=[5, 7])
        assert [load.shard for load in loads] == [0, 1]
        assert [load.probes_routed for load in loads] == ledger.spent
        assert loads[1].stolen_in == 1
        assert loads[0].stolen_out == 1
        assert loads[1].effective_budget == 2
        assert loads[0].resources == 5

    def test_effective_budget_property(self):
        load = ShardLoad(shard=0, nominal_budget=4, stolen_in=2,
                         stolen_out=1)
        assert load.effective_budget == 5

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards"):
            BudgetLedger(0)
