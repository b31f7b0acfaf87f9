"""Tests for the overwrite and window(W) delivery restrictions."""

import pytest

from repro.core import Epoch
from repro.workloads import OverwriteRestriction, WindowRestriction


class TestOverwriteRestriction:
    def test_ei_runs_until_next_update(self):
        eis = OverwriteRestriction().execution_intervals(
            0, [3, 8, 15], Epoch(20))
        assert [(ei.start, ei.finish) for ei in eis] == [
            (3, 7), (8, 14), (15, 20)]

    def test_last_update_extends_to_epoch_end(self):
        eis = OverwriteRestriction().execution_intervals(0, [5], Epoch(9))
        assert [(ei.start, ei.finish) for ei in eis] == [(5, 9)]

    def test_back_to_back_updates_give_unit_eis(self):
        eis = OverwriteRestriction().execution_intervals(
            0, [4, 5], Epoch(10))
        assert (eis[0].start, eis[0].finish) == (4, 4)

    def test_unsorted_input_handled(self):
        eis = OverwriteRestriction().execution_intervals(
            0, [8, 3], Epoch(10))
        assert [(ei.start, ei.finish) for ei in eis] == [(3, 7), (8, 10)]

    def test_duplicate_updates_collapse(self):
        eis = OverwriteRestriction().execution_intervals(
            0, [3, 3, 8], Epoch(10))
        assert len(eis) == 2

    def test_no_updates_no_eis(self):
        assert OverwriteRestriction().execution_intervals(
            0, [], Epoch(10)) == []

    def test_resource_id_propagates(self):
        eis = OverwriteRestriction().execution_intervals(7, [1], Epoch(5))
        assert eis[0].resource_id == 7


class TestWindowRestriction:
    def test_window_width(self):
        eis = WindowRestriction(5).execution_intervals(0, [3], Epoch(20))
        assert [(ei.start, ei.finish) for ei in eis] == [(3, 8)]

    def test_window_clipped_at_epoch_end(self):
        eis = WindowRestriction(5).execution_intervals(0, [18], Epoch(20))
        assert [(ei.start, ei.finish) for ei in eis] == [(18, 20)]

    def test_zero_window_gives_unit_eis(self):
        eis = WindowRestriction(0).execution_intervals(
            0, [3, 9], Epoch(20))
        assert all(ei.is_unit for ei in eis)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            WindowRestriction(-1)

    def test_overlapping_windows_allowed(self):
        # Updates closer than W produce intra-resource overlap.
        eis = WindowRestriction(10).execution_intervals(
            0, [3, 6], Epoch(30))
        assert eis[0].overlaps(eis[1])

