"""Tests for schedules and capture indicators.

Every case runs on both ways of building a schedule: probe by probe,
``Schedule(probes)`` (each class below), and from two probe columns,
``Schedule.from_columns`` (the ``*FromColumns`` subclasses at the end,
which swap ``make``). The cases only a column-born schedule has close
the file.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Schedule,
    TInterval,
)


class TestProbeBookkeeping:
    make = staticmethod(Schedule)

    def test_add_and_contains(self):
        schedule = self.make()
        assert schedule.add_probe(3, 7)
        assert (3, 7) in schedule
        assert (3, 8) not in schedule

    def test_duplicate_probe_collapses(self):
        schedule = self.make()
        assert schedule.add_probe(1, 1)
        assert not schedule.add_probe(1, 1)
        assert len(schedule) == 1

    def test_invalid_probe_rejected(self):
        schedule = self.make()
        with pytest.raises(ValueError):
            schedule.add_probe(-1, 1)
        with pytest.raises(ValueError):
            schedule.add_probe(0, 0)

    def test_probes_ordered_by_chronon_then_resource(self):
        schedule = self.make([(2, 5), (0, 5), (1, 1)])
        assert list(schedule.probes()) == [(1, 1), (0, 5), (2, 5)]

    def test_columns_are_int_arrays_in_chronon_order(self):
        probes = [(1, 1), (2, 5), (0, 5), (0, 9)]
        rids, chronons = self.make(probes).columns()
        assert rids.dtype == chronons.dtype == np.int64
        assert chronons.tolist() == [1, 5, 5, 9]
        assert sorted(zip(rids.tolist(), chronons.tolist())) == \
            sorted(probes)
        empty = self.make().columns()
        assert [column.tolist() for column in empty] == [[], []]

    def test_probes_at(self):
        schedule = self.make([(2, 5), (0, 5), (1, 1)])
        assert schedule.probes_at(5) == [0, 2]
        assert schedule.probes_at(9) == []

    def test_probe_chronons_sorted(self):
        schedule = self.make([(0, 9), (0, 2), (0, 5)])
        assert schedule.probe_chronons(0) == [2, 5, 9]

    def test_contains_rejects_non_probe(self):
        schedule = self.make([(0, 1)])
        assert "x" not in schedule
        assert (0,) not in schedule

    def test_copy_is_independent(self):
        schedule = self.make([(0, 1)])
        clone = schedule.copy()
        clone.add_probe(1, 2)
        assert len(schedule) == 1
        assert len(clone) == 2


class TestCaptureIndicators:
    make = staticmethod(Schedule)

    def test_ei_captured_when_probe_inside_window(self):
        schedule = self.make([(0, 5)])
        assert schedule.captures_ei(ExecutionInterval(0, 3, 7))

    def test_ei_not_captured_outside_window(self):
        schedule = self.make([(0, 8)])
        assert not schedule.captures_ei(ExecutionInterval(0, 3, 7))

    def test_ei_not_captured_wrong_resource(self):
        schedule = self.make([(1, 5)])
        assert not schedule.captures_ei(ExecutionInterval(0, 3, 7))

    def test_ei_boundaries_count(self):
        ei = ExecutionInterval(0, 3, 7)
        assert self.make([(0, 3)]).captures_ei(ei)
        assert self.make([(0, 7)]).captures_ei(ei)

    def test_tinterval_needs_all_eis(self):
        eta = TInterval([ExecutionInterval(0, 1, 3),
                         ExecutionInterval(1, 5, 8)])
        assert not self.make([(0, 2)]).captures_tinterval(eta)
        assert self.make([(0, 2), (1, 6)]).captures_tinterval(eta)

    def test_one_probe_captures_overlapping_eis_same_resource(self):
        # Intra-resource overlap: one probe serves both EIs.
        schedule = self.make([(0, 5)])
        first = ExecutionInterval(0, 3, 6)
        second = ExecutionInterval(0, 5, 9)
        assert schedule.captures_ei(first)
        assert schedule.captures_ei(second)


class TestBudgetFeasibility:
    make = staticmethod(Schedule)

    def test_respects_constant_budget(self):
        schedule = self.make([(0, 1), (1, 2)])
        assert schedule.respects_budget(BudgetVector(1), Epoch(5))

    def test_violates_budget(self):
        schedule = self.make([(0, 1), (1, 1)])
        assert not schedule.respects_budget(BudgetVector(1), Epoch(5))
        assert schedule.respects_budget(BudgetVector(2), Epoch(5))

    def test_probe_outside_epoch_is_infeasible(self):
        schedule = self.make([(0, 9)])
        assert not schedule.respects_budget(BudgetVector(1), Epoch(5))

    def test_override_budget(self):
        schedule = self.make([(0, 1), (1, 1), (2, 1)])
        budget = BudgetVector(1, overrides={1: 3})
        assert schedule.respects_budget(budget, Epoch(5))


def _from_columns(probes=()):
    """``Schedule(probes)``'s column-born twin (distinct probes only)."""
    probes = list(probes)
    return Schedule.from_columns(
        np.array([rid for rid, _t in probes], dtype=np.int64),
        np.array([t for _rid, t in probes], dtype=np.int64))


def test_object_born_columns_are_its_probes():
    schedule = Schedule([(2, 5), (0, 5), (1, 1), (0, 9)])
    rids, chronons = schedule.columns()
    assert list(zip(rids.tolist(), chronons.tolist())) == \
        list(schedule.probes())


class TestProbeBookkeepingFromColumns(TestProbeBookkeeping):
    make = staticmethod(_from_columns)


class TestCaptureIndicatorsFromColumns(TestCaptureIndicators):
    make = staticmethod(_from_columns)


class TestBudgetFeasibilityFromColumns(TestBudgetFeasibility):
    make = staticmethod(_from_columns)


@pytest.fixture
def groupings(monkeypatch):
    """Counts the column groupings made in this process."""
    made = []
    original = Schedule.__getattr__

    def counting(self, name):
        if name == "_chronons":
            made.append(self)
        return original(self, name)

    monkeypatch.setattr(Schedule, "__getattr__", counting)
    return made


class TestColumnBorn:
    _PROBES = [(2, 5), (0, 5), (1, 1), (0, 9)]

    def test_len_before_any_read(self, groupings):
        schedule = _from_columns(self._PROBES)
        assert len(schedule) == 4
        assert repr(schedule) == "Schedule(probes=4)"
        assert groupings == []
        assert schedule.probe_chronons(0) == [5, 9]
        assert groupings == [schedule]
        assert list(schedule.probes()) == [(1, 1), (0, 5), (2, 5), (0, 9)]
        assert groupings == [schedule]

    def test_add_probe_groups_then_adds(self, groupings):
        schedule = _from_columns(self._PROBES)
        assert not schedule.add_probe(0, 5)
        assert groupings == [schedule]
        assert len(schedule) == 4
        assert schedule.add_probe(0, 6)
        assert len(schedule) == 5
        assert schedule.probe_chronons(0) == [5, 6, 9]
        assert groupings == [schedule]

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        schedule = _from_columns(self._PROBES)
        if read_first:
            assert (1, 1) in schedule
        restored = pickle.loads(pickle.dumps(schedule))
        assert len(restored) == len(schedule) == 4
        assert list(restored.probes()) == list(schedule.probes())
        assert restored.add_probe(3, 2)
        assert len(restored) == 5 and len(schedule) == 4

    def test_unknown_attribute_is_still_an_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            _from_columns(self._PROBES).nope

    def test_columns_are_the_adopted_arrays(self, groupings):
        rids = np.array([2, 0, 1, 0], dtype=np.int64)
        chronons = np.array([1, 5, 5, 9], dtype=np.int64)
        schedule = Schedule.from_columns(rids, chronons)
        got = schedule.columns()
        assert got[0] is rids and got[1] is chronons
        assert groupings == []

    def test_columns_after_grouping_are_in_chronon_order(self, groupings):
        schedule = _from_columns(self._PROBES)
        assert schedule.add_probe(3, 2)
        rids, chronons = schedule.columns()
        assert list(zip(rids.tolist(), chronons.tolist())) == \
            list(schedule.probes())
