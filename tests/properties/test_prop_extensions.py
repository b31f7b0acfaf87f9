"""Property-based tests for the §6 extensions (quotas, utilities)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BudgetVector,
    Profile,
    ProfileSet,
    Schedule,
    TInterval,
    gained_completeness,
)
from repro.extensions import UtilityWeights, weighted_completeness
from repro.online import MRSFPolicy
from repro.simulation import run_online

from tests.properties.strategies import (
    HORIZON,
    NUM_RESOURCES,
    epoch,
    profile_sets,
)

def _any_of(profiles: ProfileSet) -> ProfileSet:
    """``profiles`` with every t-interval satisfied by one of its EIs."""
    return ProfileSet(Profile([TInterval(eta.eis, need=1) for eta in p])
                      for p in profiles)


probe_lists = st.lists(
    st.tuples(st.integers(0, NUM_RESOURCES - 1),
              st.integers(1, HORIZON)),
    max_size=25,
)


class TestQuotaProperties:
    @given(profiles=profile_sets(), probes=probe_lists)
    @settings(max_examples=50)
    def test_relaxing_quotas_never_lowers_schedule_completeness(
            self, profiles, probes):
        """For a FIXED schedule, k-of-n is monotone in the quota."""
        schedule = Schedule(probes)
        strict = gained_completeness(profiles, schedule)
        relaxed = gained_completeness(_any_of(profiles), schedule)
        assert relaxed >= strict

    @given(profiles=profile_sets(), probes=probe_lists)
    @settings(max_examples=50)
    def test_all_required_quota_equals_plain_gc(self, profiles, probes):
        spelled = ProfileSet(
            Profile([TInterval(eta.eis, need=eta.size) for eta in p])
            for p in profiles)
        schedule = Schedule(probes)
        assert gained_completeness(spelled, schedule) == \
            gained_completeness(profiles, schedule)

    @given(profiles=profile_sets())
    @settings(max_examples=30, deadline=None)
    def test_quota_run_respects_budget(self, profiles):
        budget = BudgetVector(1)
        result = run_online(_any_of(profiles), epoch(), budget,
                            MRSFPolicy())
        assert result.schedule.respects_budget(budget, epoch())

    @given(profiles=profile_sets())
    @settings(max_examples=30, deadline=None)
    def test_quota_run_accounting_adds_up(self, profiles):
        result = run_online(_any_of(profiles), epoch(), BudgetVector(1),
                            MRSFPolicy())
        assert (result.report.captured + result.expired
                == profiles.total_tintervals)


class TestUtilityProperties:
    @given(profiles=profile_sets(), probes=probe_lists,
           weight=st.floats(0.5, 10.0))
    @settings(max_examples=50)
    def test_uniform_weights_equal_plain_gc(self, profiles, probes,
                                            weight):
        from repro.core import gained_completeness
        schedule = Schedule(probes)
        uniform = UtilityWeights(profile_weights={
            profile.profile_id: weight for profile in profiles
        })
        # Any *constant* weighting leaves the ratio unchanged (up to FP
        # rounding in the weighted accumulation).
        import pytest as _pytest
        assert weighted_completeness(profiles, schedule, uniform) == \
            _pytest.approx(gained_completeness(profiles, schedule))

    @given(profiles=profile_sets(), probes=probe_lists)
    @settings(max_examples=50)
    def test_weighted_gc_in_unit_interval(self, profiles, probes):
        weights = UtilityWeights(profile_weights={
            profile.profile_id: 1.0 + profile.profile_id
            for profile in profiles
        })
        value = weighted_completeness(profiles, Schedule(probes),
                                      weights)
        assert 0.0 <= value <= 1.0

    @given(profiles=profile_sets(), probes=probe_lists)
    @settings(max_examples=50)
    def test_upweighting_captured_tinterval_raises_weighted_gc(
            self, profiles, probes):
        from repro.core import gained_completeness
        schedule = Schedule(probes)
        captured = [eta for eta in profiles.tintervals()
                    if schedule.captures_tinterval(eta)]
        missed = [eta for eta in profiles.tintervals()
                  if not schedule.captures_tinterval(eta)]
        if not captured or not missed:
            return
        target = captured[0]
        weights = UtilityWeights(tinterval_weights={
            (target.profile_id, target.tinterval_id): 10.0})
        assert weighted_completeness(profiles, schedule, weights) >= \
            gained_completeness(profiles, schedule)
