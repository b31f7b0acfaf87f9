"""Tests for the conflict-graph construction."""

import pytest

from repro.core import (
    BudgetVector,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.offline import (
    demand_map,
    overlap_adjacency,
    self_infeasible,
    unit_conflict_adjacency,
)

from tests.offline import oracle


def _unit_profiles(*etas: list[tuple[int, int]]) -> ProfileSet:
    """Each eta spec is a list of (resource, chronon) unit EIs."""
    return ProfileSet([Profile([
        TInterval([ExecutionInterval(r, c, c) for r, c in eta])
        for eta in etas
    ])])


def _unit(profiles, budget):
    """The unit builder's ``(etas, adjacency)``, checked against the
    pairwise oracle."""
    built = unit_conflict_adjacency(profiles, budget)
    assert built == oracle.unit_conflicts(profiles, budget)
    return built


def _overlap(profiles, budget=BudgetVector(3)):
    """The overlap builder's ``(etas, adjacency)``, checked against the
    pairwise oracle (the default budget filters none of these cases)."""
    built = overlap_adjacency(profiles, budget)
    assert built == oracle.overlaps(profiles, budget)
    return built


class TestDemandMap:
    def test_merges_same_resource_same_chronon(self):
        eta = TInterval([ExecutionInterval(0, 3, 3),
                         ExecutionInterval(0, 3, 3),
                         ExecutionInterval(1, 3, 3)])
        assert demand_map(eta) == {3: {0, 1}}

    def test_multiple_chronons(self):
        eta = TInterval([ExecutionInterval(0, 1, 1),
                         ExecutionInterval(1, 5, 5)])
        assert demand_map(eta) == {1: {0}, 5: {1}}


class TestSelfInfeasible:
    def test_needs_more_than_budget(self):
        eta = TInterval([ExecutionInterval(0, 3, 3),
                         ExecutionInterval(1, 3, 3)])
        assert self_infeasible(eta, BudgetVector(1))
        assert not self_infeasible(eta, BudgetVector(2))

    def test_non_unit_within_window_budget(self):
        # Two resources confined to [3, 4]: window capacity 2 suffices.
        eta = TInterval([ExecutionInterval(0, 3, 4),
                         ExecutionInterval(1, 3, 4)])
        assert not self_infeasible(eta, BudgetVector(1))

    def test_non_unit_pigeonhole_violation(self):
        # Three distinct resources forced into the 2-chronon window
        # [3, 4] under budget 1: only 2 probes exist there -> doomed.
        eta = TInterval([ExecutionInterval(0, 3, 4),
                         ExecutionInterval(1, 3, 4),
                         ExecutionInterval(2, 3, 4)])
        assert self_infeasible(eta, BudgetVector(1))
        assert not self_infeasible(eta, BudgetVector(2))

    def test_non_unit_pigeonhole_sub_window(self):
        # The violated window [2, 3] is a proper sub-span of the eta:
        # the wide EI on resource 3 is NOT confined there and must not
        # count, while the three EIs inside [2, 3] exceed its 2 probes.
        eta = TInterval([ExecutionInterval(0, 2, 3),
                         ExecutionInterval(1, 2, 3),
                         ExecutionInterval(2, 2, 3),
                         ExecutionInterval(3, 1, 9)])
        assert self_infeasible(eta, BudgetVector(1))

    def test_non_unit_rescuable_by_budget_override(self):
        # Same shape, but a budget burst inside the window rescues it.
        eta = TInterval([ExecutionInterval(0, 3, 4),
                         ExecutionInterval(1, 3, 4),
                         ExecutionInterval(2, 3, 4)])
        burst = BudgetVector(1, overrides={3: 2})
        assert not self_infeasible(eta, burst)

    def test_duplicate_resources_count_once(self):
        # Two EIs of one resource can share a probe; no violation.
        eta = TInterval([ExecutionInterval(0, 3, 4),
                         ExecutionInterval(0, 3, 4),
                         ExecutionInterval(1, 3, 4)])
        assert not self_infeasible(eta, BudgetVector(1))


class TestUnitConflictGraph:
    def test_requires_unit_width(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 3)])])])
        with pytest.raises(ValueError, match="P\\^\\[1\\]"):
            unit_conflict_adjacency(profiles, BudgetVector(1))
        with pytest.raises(ValueError, match="P\\^\\[1\\]"):
            oracle.unit_conflicts(profiles, BudgetVector(1))

    def test_same_chronon_different_resources_conflict(self):
        profiles = _unit_profiles([(0, 3)], [(1, 3)])
        _etas, adjacency = _unit(profiles, BudgetVector(1))
        assert (0, 1) in adjacency[(0, 0)]

    def test_same_chronon_same_resource_no_conflict(self):
        profiles = _unit_profiles([(0, 3)], [(0, 3)])
        _etas, adjacency = _unit(profiles, BudgetVector(1))
        assert (0, 1) not in adjacency[(0, 0)]

    def test_different_chronons_no_conflict(self):
        profiles = _unit_profiles([(0, 3)], [(1, 5)])
        _etas, adjacency = _unit(profiles, BudgetVector(1))
        assert _edge_set(adjacency) == set()

    def test_budget_two_relaxes_conflict(self):
        profiles = _unit_profiles([(0, 3)], [(1, 3)])
        _etas, adjacency = _unit(profiles, BudgetVector(2))
        assert _edge_set(adjacency) == set()

    def test_budget_two_three_way_conflict(self):
        profiles = _unit_profiles([(0, 3), (1, 3)], [(2, 3)])
        _etas, adjacency = _unit(profiles, BudgetVector(2))
        # Together they need 3 resources at chronon 3 > budget 2.
        assert (0, 1) in adjacency[(0, 0)]

    def test_self_infeasible_excluded(self):
        profiles = _unit_profiles([(0, 3), (1, 3)], [(2, 5)])
        etas, adjacency = _unit(profiles, BudgetVector(1))
        assert (0, 0) not in adjacency
        assert set(etas) == {(0, 1)}


class TestOverlapGraph:
    def test_time_overlap_creates_edge(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 5)]),
            TInterval([ExecutionInterval(1, 4, 9)]),
        ])])
        _etas, adjacency = _overlap(profiles)
        assert (0, 1) in adjacency[(0, 0)]

    def test_disjoint_windows_no_edge(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 3)]),
            TInterval([ExecutionInterval(1, 5, 9)]),
        ])])
        _etas, adjacency = _overlap(profiles)
        assert (0, 1) not in adjacency[(0, 0)]

    def test_span_overlap_but_ei_disjoint_no_edge(self):
        # Spans overlap ([1,9] vs [4,5]) but actual EI windows don't.
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 2),
                       ExecutionInterval(1, 8, 9)]),
            TInterval([ExecutionInterval(2, 4, 5)]),
        ])])
        _etas, adjacency = _overlap(profiles)
        assert (0, 1) not in adjacency[(0, 0)]

    def test_nodes_carry_etas(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 2)])])])
        etas, _adjacency = _overlap(profiles)
        assert etas[(0, 0)].size == 1


def _edge_set(adjacency):
    return {frozenset((left, right))
            for left, neighbors in adjacency.items()
            for right in neighbors}


class TestSweepAdjacencyEquivalence:
    """The sweep builders emit exactly the pairwise oracle's edge sets."""

    def test_unit_adjacency_matches_graph(self):
        profiles = _unit_profiles(
            [(0, 3), (1, 5)], [(1, 3)], [(0, 3)], [(2, 5)], [(0, 7)])
        for budget in (BudgetVector(1), BudgetVector(2),
                       BudgetVector(1, overrides={5: 3})):
            etas, _adjacency = _unit(profiles, budget)
            assert all(etas[key] is eta for key, eta in
                       oracle.unit_conflicts(profiles, budget)[0].items())

    def test_unit_adjacency_requires_unit_width(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 3)])])])
        with pytest.raises(ValueError, match="P\\^\\[1\\]"):
            unit_conflict_adjacency(profiles, BudgetVector(1))

    def test_overlap_adjacency_matches_graph(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 2),
                       ExecutionInterval(1, 8, 9)]),
            TInterval([ExecutionInterval(2, 4, 5)]),
            TInterval([ExecutionInterval(0, 2, 4)]),
        ]), Profile([
            TInterval([ExecutionInterval(3, 5, 8)]),
            TInterval([ExecutionInterval(1, 9, 9)]),
        ])])
        for budget in (BudgetVector(1), BudgetVector(3),
                       BudgetVector(1, overrides={5: 0})):
            _overlap(profiles, budget)

    def test_overlap_adjacency_touching_windows(self):
        # Windows meeting at exactly one chronon must be adjacent.
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 4)]),
            TInterval([ExecutionInterval(1, 4, 7)]),
        ])])
        _etas, adjacency = _overlap(profiles)
        assert (0, 1) in adjacency[(0, 0)]

    def test_overlap_adjacency_budget_filters_infeasible(self):
        infeasible = TInterval([ExecutionInterval(0, 3, 4),
                                ExecutionInterval(1, 3, 4),
                                ExecutionInterval(2, 3, 4)])
        fine = TInterval([ExecutionInterval(0, 1, 9)])
        profiles = ProfileSet([Profile([infeasible, fine])])
        _etas, unfiltered = _overlap(profiles, BudgetVector(2))
        assert (0, 0) in unfiltered
        etas, filtered = _overlap(profiles, BudgetVector(1))
        assert (0, 0) not in filtered
        assert (0, 1) in filtered
