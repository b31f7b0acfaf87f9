"""Property-based cross-checks of analysis statistics and conflict graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compute_stats
from repro.core import BudgetVector, Epoch
from repro.offline import ProbeAssigner, unit_conflict_adjacency

from tests.properties.strategies import (
    HORIZON,
    epoch,
    profile_sets,
)


class TestStatsAgainstBruteForce:
    @given(profiles=profile_sets())
    @settings(max_examples=50)
    def test_peak_demand_matches_per_chronon_scan(self, profiles):
        stats = compute_stats(profiles, epoch(), BudgetVector(1))
        brute = 0
        for chronon in range(1, HORIZON + 1):
            active = {
                ei.resource_id
                for eta in profiles.tintervals()
                for ei in eta
                if ei.start <= chronon <= ei.finish
            }
            brute = max(brute, len(active))
        assert stats.peak_demand == brute

    @given(profiles=profile_sets())
    @settings(max_examples=50)
    def test_overlap_rate_matches_pairwise_scan(self, profiles):
        stats = compute_stats(profiles, epoch(), BudgetVector(1))
        eis = [ei for eta in profiles.tintervals() for ei in eta]
        overlapping = 0
        for index, left in enumerate(eis):
            if any(left.resource_id == right.resource_id
                   and left.overlaps(right)
                   for position, right in enumerate(eis)
                   if position != index):
                overlapping += 1
        expected = overlapping / len(eis) if eis else 0.0
        assert stats.intra_resource_overlap_rate == \
            __import__("pytest").approx(expected)

    @given(profiles=profile_sets())
    @settings(max_examples=50)
    def test_counts_consistent(self, profiles):
        stats = compute_stats(profiles, epoch(), BudgetVector(1))
        assert stats.num_tintervals == profiles.total_tintervals
        assert stats.num_eis >= stats.num_tintervals
        assert 0.0 <= stats.unit_width_fraction <= 1.0
        assert stats.rank == profiles.rank


class TestConflictGraphSemantics:
    @given(profiles=profile_sets(unit_width=True),
           budget=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_edge_iff_pair_not_jointly_schedulable(self, profiles,
                                                   budget):
        """For P^[1]: two (individually feasible) t-intervals conflict
        exactly when they cannot be scheduled together."""
        budget_vector = BudgetVector(budget)
        etas, adjacency = unit_conflict_adjacency(profiles, budget_vector)
        nodes = sorted(etas)
        for index, left in enumerate(nodes):
            for right in nodes[index + 1:]:
                assigner = ProbeAssigner(epoch(), budget_vector)
                assert assigner.try_add(etas[left])
                jointly = assigner.try_add(etas[right])
                if right in adjacency[left]:
                    assert not jointly, (
                        f"edge {left}-{right} but jointly schedulable")
                else:
                    assert jointly, (
                        f"no edge {left}-{right} but infeasible pair")
