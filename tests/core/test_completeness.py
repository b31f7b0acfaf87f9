"""Tests for gained completeness (the paper's objective function)."""

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    Schedule,
    TInterval,
    evaluate_schedule,
    gained_completeness,
)
from repro.online import MRSFPolicy
from repro.simulation import run_online


def _profiles() -> ProfileSet:
    p0 = Profile([
        TInterval([ExecutionInterval(0, 1, 3),
                   ExecutionInterval(1, 2, 4)]),
        TInterval([ExecutionInterval(0, 6, 8)]),
    ])
    p1 = Profile([TInterval([ExecutionInterval(2, 1, 10)])])
    return ProfileSet([p0, p1])


class TestGainedCompleteness:
    def test_empty_schedule_zero_gc(self):
        assert gained_completeness(_profiles(), Schedule()) == 0.0

    def test_full_capture_gc_one(self):
        schedule = Schedule([(0, 2), (1, 3), (0, 7), (2, 5)])
        assert gained_completeness(_profiles(), schedule) == 1.0

    def test_partial_capture(self):
        # Captures only p0's second t-interval and p1's t-interval.
        schedule = Schedule([(0, 7), (2, 5)])
        assert gained_completeness(_profiles(), schedule) == 2 / 3

    def test_partial_tinterval_does_not_count(self):
        # One EI of the 2-EI t-interval is not enough.
        schedule = Schedule([(0, 2)])
        assert gained_completeness(_profiles(), schedule) == 0.0

    def test_empty_profile_set_is_vacuously_complete(self):
        assert gained_completeness(ProfileSet(), Schedule()) == 1.0


class TestCompletenessReport:
    def test_counts(self):
        schedule = Schedule([(0, 7), (2, 5)])
        report = evaluate_schedule(_profiles(), schedule)
        assert report.captured == 2
        assert report.total == 3

    def test_per_profile_breakdown(self):
        schedule = Schedule([(0, 7), (2, 5)])
        report = evaluate_schedule(_profiles(), schedule)
        assert report.per_profile[0] == (1, 2)
        assert report.per_profile[1] == (1, 1)
        assert report.profile_gc(0) == 0.5
        assert report.profile_gc(1) == 1.0

    def test_profile_gc_missing_profile_is_vacuous(self):
        report = evaluate_schedule(_profiles(), Schedule())
        assert report.profile_gc(99) == 1.0

    def test_per_rank_breakdown(self):
        schedule = Schedule([(0, 7), (2, 5)])
        report = evaluate_schedule(_profiles(), schedule)
        # Two rank-1 t-intervals (both captured), one rank-2 (missed).
        assert report.per_rank[1] == (2, 2)
        assert report.per_rank[2] == (0, 1)

    def test_gc_property_matches_function(self):
        schedule = Schedule([(0, 2), (1, 3)])
        report = evaluate_schedule(_profiles(), schedule)
        assert report.gc == gained_completeness(_profiles(), schedule)


def _contended() -> ProfileSet:
    """Three EIs at chronon 2: a budget of 1 misses two t-intervals."""
    return ProfileSet([
        Profile([TInterval([ExecutionInterval(0, 2, 2)]),
                 TInterval([ExecutionInterval(1, 2, 2),
                            ExecutionInterval(3, 4, 4)])]),
        Profile([TInterval([ExecutionInterval(2, 2, 2)])]),
    ])


class TestBlockReport:
    """A block-kernel report counts its breakdowns on first read and is
    still a report: equal to the dict-built one, from either side."""

    @staticmethod
    def _run(profiles, engine="batch"):
        return run_online(profiles, Epoch(6), BudgetVector(1),
                          MRSFPolicy(), engine=engine)

    def test_equals_the_dict_built_report_either_side(self):
        for profiles in (_profiles(), _contended()):
            result = self._run(profiles)
            tallied = evaluate_schedule(profiles, result.schedule)
            assert type(tallied.per_profile) is dict
            assert result.report == tallied
            assert tallied == result.report
            assert result.report == self._run(profiles).report
            assert tallied.per_rank == result.report.per_rank
            assert list(result.report.per_profile) == \
                list(tallied.per_profile)
            assert list(result.report.per_rank.items()) == \
                list(tallied.per_rank.items())

    def test_profile_gc_before_any_other_read(self):
        reference = self._run(_contended(), "reference").report
        assert reference.captured == 1
        for profile_id in (0, 1, 99):
            report = self._run(_contended()).report
            assert report.profile_gc(profile_id) == \
                reference.profile_gc(profile_id)

    def test_repr_shows_the_counts_before_any_other_read(self):
        reference = self._run(_contended(), "reference").report
        report = self._run(_contended()).report
        assert repr(report) == repr(reference)
        assert "per_profile={0: (" in repr(report)
