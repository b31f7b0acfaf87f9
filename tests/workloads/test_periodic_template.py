"""Tests for the temporal-trigger PeriodicWatchTemplate."""

import pytest

from repro.core import Epoch, WorkloadError
from repro.workloads import PeriodicWatchTemplate


class TestConstruction:
    def test_invalid_period(self):
        with pytest.raises(WorkloadError):
            PeriodicWatchTemplate(0)

    def test_invalid_width(self):
        with pytest.raises(WorkloadError):
            PeriodicWatchTemplate(5, width=-1)

    def test_invalid_phase(self):
        with pytest.raises(WorkloadError):
            PeriodicWatchTemplate(5, phase=-1)


class TestRounds:
    def test_rounds_every_period(self):
        template = PeriodicWatchTemplate(10, width=2)
        profile = template.build_profile([0, 1], None, Epoch(35))
        starts = [eta.earliest_start for eta in profile]
        assert starts == [1, 11, 21, 31]

    def test_window_width(self):
        template = PeriodicWatchTemplate(10, width=3)
        profile = template.build_profile([0], None, Epoch(30))
        first = profile[0][0]
        assert (first.start, first.finish) == (1, 4)

    def test_window_clipped_at_epoch_end(self):
        template = PeriodicWatchTemplate(10, width=5)
        profile = template.build_profile([0], None, Epoch(32))
        last = profile[len(profile) - 1][0]
        assert last.finish == 32

    def test_phase_shifts_rounds(self):
        template = PeriodicWatchTemplate(10, phase=4)
        profile = template.build_profile([0], None, Epoch(30))
        assert [eta.earliest_start for eta in profile] == [5, 15, 25]

    def test_one_ei_per_resource_per_round(self):
        template = PeriodicWatchTemplate(10, width=2)
        profile = template.build_profile([3, 5, 7], None, Epoch(20))
        for eta in profile:
            assert eta.resource_ids == frozenset({3, 5, 7})
            assert eta.size == 3

    def test_rank_is_resource_count(self):
        template = PeriodicWatchTemplate(10)
        profile = template.build_profile([0, 1], None, Epoch(20))
        assert profile.rank == 2

    def test_trace_is_ignored(self):
        from repro.traces import PoissonUpdateModel
        epoch = Epoch(30)
        trace = PoissonUpdateModel(10, seed=1).generate([0], epoch)
        with_trace = PeriodicWatchTemplate(10).build_profile(
            [0], trace, epoch)
        without = PeriodicWatchTemplate(10).build_profile(
            [0], None, epoch)
        assert [eta.eis for eta in with_trace] == \
            [eta.eis for eta in without]


class TestValidation:
    def test_empty_resources_rejected(self):
        with pytest.raises(WorkloadError):
            PeriodicWatchTemplate(5).build_profile([], None, Epoch(10))

    def test_duplicate_resources_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            PeriodicWatchTemplate(5).build_profile([1, 1], None,
                                                   Epoch(10))

