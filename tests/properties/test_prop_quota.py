"""Property-based tests for quota (k-of-n) t-intervals (paper §6)."""

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

