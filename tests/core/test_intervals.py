"""Tests for execution intervals and t-intervals."""

import pytest

from repro.core import ExecutionInterval, TInterval


class TestExecutionIntervalConstruction:
    def test_basic(self):
        ei = ExecutionInterval(0, 3, 7)
        assert (ei.resource_id, ei.start, ei.finish) == (0, 3, 7)

    def test_unit_interval(self):
        ei = ExecutionInterval(0, 5, 5)
        assert ei.is_unit
        assert ei.width == 1

    def test_width(self):
        assert ExecutionInterval(0, 3, 7).width == 5

    def test_start_before_one_rejected(self):
        with pytest.raises(ValueError, match="start"):
            ExecutionInterval(0, 0, 5)

    def test_finish_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            ExecutionInterval(0, 5, 4)

    def test_negative_resource_rejected(self):
        with pytest.raises(ValueError, match="resource_id"):
            ExecutionInterval(-1, 1, 2)


class TestExecutionIntervalPredicates:
    def test_active_at_inside(self):
        ei = ExecutionInterval(0, 3, 7)
        assert ei.active_at(3)
        assert ei.active_at(5)
        assert ei.active_at(7)

    def test_active_at_outside(self):
        ei = ExecutionInterval(0, 3, 7)
        assert not ei.active_at(2)
        assert not ei.active_at(8)

    def test_expired_at(self):
        ei = ExecutionInterval(0, 3, 7)
        assert not ei.expired_at(7)
        assert ei.expired_at(8)

    def test_overlaps_shared_chronon(self):
        assert ExecutionInterval(0, 1, 5).overlaps(
            ExecutionInterval(1, 5, 9))

    def test_overlaps_disjoint(self):
        assert not ExecutionInterval(0, 1, 4).overlaps(
            ExecutionInterval(1, 5, 9))

    def test_overlaps_is_symmetric(self):
        a = ExecutionInterval(0, 2, 6)
        b = ExecutionInterval(1, 4, 10)
        assert a.overlaps(b) == b.overlaps(a)

    def test_chronons_iterates_window(self):
        assert list(ExecutionInterval(0, 3, 5).chronons()) == [3, 4, 5]

    def test_shifted(self):
        shifted = ExecutionInterval(0, 3, 5).shifted(2)
        assert (shifted.start, shifted.finish) == (5, 7)

    def test_with_id(self):
        assert ExecutionInterval(0, 1, 2).with_id(4).ei_id == 4


class TestTIntervalConstruction:
    def test_assigns_local_ei_ids(self):
        eta = TInterval([ExecutionInterval(0, 1, 2),
                         ExecutionInterval(1, 3, 4)])
        assert [ei.ei_id for ei in eta] == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TInterval([])

    def test_size(self):
        eta = TInterval([ExecutionInterval(0, 1, 2)] * 3)
        assert eta.size == 3
        assert len(eta) == 3

    def test_indexing(self):
        eta = TInterval([ExecutionInterval(0, 1, 2),
                         ExecutionInterval(1, 5, 6)])
        assert eta[1].resource_id == 1

    def test_attached_sets_identities(self):
        eta = TInterval([ExecutionInterval(0, 1, 2)])
        attached = eta.attached(tinterval_id=4, profile_id=2)
        assert attached.tinterval_id == 4
        assert attached.profile_id == 2

    def test_attached_equals_validating_constructor(self):
        # attached() restamps through from_stamped; the validating
        # constructor is the oracle for bare, attached and re-attached
        # inputs alike.
        eis = [ExecutionInterval(0, 1, 2), ExecutionInterval(3, 2, 6),
               ExecutionInterval(1, 4, 4)]
        bare = TInterval(eis)
        once = bare.attached(tinterval_id=4, profile_id=2)
        twice = once.attached(tinterval_id=0, profile_id=9)
        for got, (tinterval_id, profile_id) in (
                (once, (4, 2)), (twice, (0, 9)),
                (twice.attached(4, 2), (4, 2))):
            expected = TInterval(eis, tinterval_id=tinterval_id,
                                 profile_id=profile_id)
            assert got == expected
            assert hash(got) == hash(expected)
            assert [ei.ei_id for ei in got] == [0, 1, 2]
        assert bare.tinterval_id == -1 and bare.profile_id == -1

    def test_attached_with_matching_ids_returns_self(self):
        eta = TInterval([ExecutionInterval(0, 1, 2)], tinterval_id=4,
                        profile_id=2)
        assert eta.attached(4, 2) is eta
        assert eta.attached(4, 3) is not eta


class TestTIntervalProperties:
    def test_earliest_start_latest_finish(self):
        eta = TInterval([ExecutionInterval(0, 5, 9),
                         ExecutionInterval(1, 2, 4),
                         ExecutionInterval(2, 7, 12)])
        assert eta.earliest_start == 2
        assert eta.latest_finish == 12

    def test_resource_ids(self):
        eta = TInterval([ExecutionInterval(0, 1, 2),
                         ExecutionInterval(2, 1, 2),
                         ExecutionInterval(0, 5, 6)])
        assert eta.resource_ids == frozenset({0, 2})

    def test_is_unit_width(self):
        assert TInterval([ExecutionInterval(0, 3, 3)]).is_unit_width
        assert not TInterval([ExecutionInterval(0, 3, 4)]).is_unit_width

    def test_siblings_of(self):
        first = ExecutionInterval(0, 1, 2)
        second = ExecutionInterval(1, 3, 4)
        eta = TInterval([first, second])
        siblings = eta.siblings_of(eta[0])
        assert len(siblings) == 1
        assert siblings[0].resource_id == 1


class TestIntraResourceOverlap:
    def test_no_overlap_different_resources(self):
        eta = TInterval([ExecutionInterval(0, 1, 5),
                         ExecutionInterval(1, 1, 5)])
        assert not eta.has_intra_resource_overlap()

    def test_overlap_same_resource(self):
        eta = TInterval([ExecutionInterval(0, 1, 5),
                         ExecutionInterval(0, 4, 8)])
        assert eta.has_intra_resource_overlap()

    def test_touching_but_disjoint_same_resource(self):
        eta = TInterval([ExecutionInterval(0, 1, 4),
                         ExecutionInterval(0, 5, 8)])
        assert not eta.has_intra_resource_overlap()
