"""Tests for profiles and profile sets."""

import pytest

from repro.core import ExecutionInterval, Profile, ProfileSet, TInterval


def _eta(*specs: tuple[int, int, int]) -> TInterval:
    return TInterval([ExecutionInterval(r, s, f) for r, s, f in specs])


class TestProfile:
    def test_rank_is_max_tinterval_size(self):
        profile = Profile([
            _eta((0, 1, 2)),
            _eta((0, 3, 4), (1, 3, 4), (2, 3, 4)),
            _eta((1, 6, 7), (2, 6, 7)),
        ])
        assert profile.rank == 3

    def test_empty_profile_rank_zero(self):
        assert Profile([]).rank == 0

    def test_len_counts_tintervals(self):
        profile = Profile([_eta((0, 1, 2)), _eta((1, 3, 4))])
        assert len(profile) == 2

    def test_tintervals_get_local_ids(self):
        profile = Profile([_eta((0, 1, 2)), _eta((1, 3, 4))],
                          profile_id=7)
        assert [eta.tinterval_id for eta in profile] == [0, 1]
        assert all(eta.profile_id == 7 for eta in profile)

    def test_attached_equals_validating_constructor(self):
        # attached() restamps through the from_stamped constructors; the
        # validating constructor is the oracle for bare, attached and
        # re-attached inputs alike.
        etas = [_eta((0, 1, 2), (3, 1, 2)), _eta((5, 4, 6))]
        bare = Profile(etas, name="watch")
        once = bare.attached(7)
        twice = once.attached(3)
        for got, profile_id in ((once, 7), (twice, 3),
                                (twice.attached(7), 7)):
            expected = Profile(etas, profile_id=profile_id, name="watch")
            assert got.tintervals == expected.tintervals
            assert hash(got.tintervals) == hash(expected.tintervals)
            assert got.profile_id == profile_id
            assert got.name == "watch"
            assert got.rank == expected.rank == 2
            assert [[ei.ei_id for ei in eta] for eta in got] == \
                [[0, 1], [0]]
        assert bare.profile_id == -1
        assert all(eta.profile_id == -1 for eta in bare)

    def test_attached_with_matching_id_returns_self(self):
        profile = Profile([_eta((0, 1, 2))], profile_id=5)
        assert profile.attached(5) is profile
        # ... which is what lets a ProfileSet adopt attached profiles.
        first = Profile([_eta((0, 1, 2))], profile_id=0)
        assert ProfileSet([first])[0] is first

    def test_attached_empty_profile(self):
        attached = Profile([], name="nothing").attached(4)
        assert len(attached) == 0
        assert attached.profile_id == 4
        assert attached.rank == 0

    def test_resource_ids_union(self):
        profile = Profile([_eta((0, 1, 2), (3, 1, 2)), _eta((5, 4, 6))])
        assert profile.resource_ids == frozenset({0, 3, 5})

    def test_is_unit_width(self):
        assert Profile([_eta((0, 2, 2))]).is_unit_width
        assert not Profile([_eta((0, 2, 3))]).is_unit_width

    def test_intra_resource_overlap_across_tintervals(self):
        profile = Profile([_eta((0, 1, 5)), _eta((0, 3, 8))])
        assert profile.has_intra_resource_overlap()

    def test_no_intra_resource_overlap(self):
        profile = Profile([_eta((0, 1, 2)), _eta((0, 5, 6))])
        assert not profile.has_intra_resource_overlap()

    def test_execution_intervals_iterates_pairs(self):
        profile = Profile([_eta((0, 1, 2), (1, 1, 2))])
        pairs = list(profile.execution_intervals())
        assert len(pairs) == 2
        assert all(eta is pairs[0][0] for eta, _ei in pairs)


class TestProfileSet:
    def test_assigns_dense_profile_ids(self):
        profiles = ProfileSet([Profile([_eta((0, 1, 2))]),
                               Profile([_eta((1, 3, 4))])])
        assert [p.profile_id for p in profiles] == [0, 1]

    def test_tinterval_ids_propagate(self):
        profiles = ProfileSet([Profile([_eta((0, 1, 2))])])
        eta = profiles.tinterval(0, 0)
        assert (eta.profile_id, eta.tinterval_id) == (0, 0)

    def test_rank_over_set(self):
        profiles = ProfileSet([
            Profile([_eta((0, 1, 2))]),
            Profile([_eta((0, 1, 2), (1, 1, 2))]),
        ])
        assert profiles.rank == 2

    def test_empty_set(self):
        profiles = ProfileSet()
        assert len(profiles) == 0
        assert profiles.rank == 0
        assert profiles.total_tintervals == 0
        assert profiles.horizon() == 1

    def test_total_tintervals(self):
        profiles = ProfileSet([
            Profile([_eta((0, 1, 2)), _eta((0, 3, 4))]),
            Profile([_eta((1, 1, 2))]),
        ])
        assert profiles.total_tintervals == 3

    def test_horizon(self):
        profiles = ProfileSet([Profile([_eta((0, 1, 2), (1, 5, 17))])])
        assert profiles.horizon() == 17

    def test_rank_of_uses_owning_profile(self):
        complex_profile = Profile([_eta((0, 1, 2), (1, 1, 2), (2, 1, 2)),
                                   _eta((0, 5, 6))])
        profiles = ProfileSet([complex_profile])
        small_eta = profiles.tinterval(0, 1)
        # The 1-EI t-interval still carries its profile's rank of 3.
        assert profiles.rank_of(small_eta) == 3

    def test_is_unit_width_set(self, unit_width_profiles):
        assert unit_width_profiles.is_unit_width

    def test_set_wide_intra_resource_overlap(self):
        profiles = ProfileSet([
            Profile([_eta((0, 1, 5))]),
            Profile([_eta((0, 4, 9))]),
        ])
        assert profiles.has_intra_resource_overlap()

    def test_tintervals_iterates_all(self, arbitrage_profiles):
        assert len(list(arbitrage_profiles.tintervals())) == 5
