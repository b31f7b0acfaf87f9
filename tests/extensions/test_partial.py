"""Tests for quota (k-of-n) t-intervals: ``TInterval.need`` (paper §6)."""

import logging

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    Schedule,
    TInterval,
    gained_completeness,
)
from repro.online import Candidate, MRSFPolicy, TIntervalState, key_of
from repro.online.registry import make_policy
from repro.simulation import run_online


def _eta(*specs: tuple[int, int, int], need=None) -> TInterval:
    return TInterval([ExecutionInterval(r, s, f) for r, s, f in specs],
                     need=need)


def _needing(profiles: ProfileSet, need: int) -> ProfileSet:
    """``profiles`` with every t-interval needing ``need`` (at most its
    size) of its EIs."""
    return ProfileSet(
        Profile([TInterval(eta.eis, need=min(need, eta.size))
                 for eta in profile], name=profile.name)
        for profile in profiles)


class TestQuotaMap:
    def test_default_requires_all(self):
        assert _eta((0, 1, 2), (1, 1, 2)).need == 2

    def test_explicit_quota(self):
        assert _eta((0, 1, 2), (1, 1, 2), need=1).need == 1

    def test_quota_clamped_to_size(self):
        # A need never exceeds the size; need == size is the default.
        with pytest.raises(ValueError, match="needs 1..1 of them"):
            _eta((0, 1, 2), need=2)
        assert _eta((0, 1, 2), need=1) == _eta((0, 1, 2))

    def test_any_of(self):
        profiles = ProfileSet([Profile([_eta((0, 1, 2), (1, 1, 2),
                                             need=1)])])
        eta = profiles.tinterval(0, 0)
        assert eta.need == 1
        assert eta != _eta((0, 1, 2), (1, 1, 2)).attached(0, 0)
        assert hash(eta) == hash(_eta((0, 1, 2), (1, 1, 2),
                                      need=1).attached(0, 0))

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            _eta((0, 1, 2), need=0)


class TestQuotaState:
    def test_complete_at_quota(self):
        state = TIntervalState(_eta((0, 1, 5), (1, 1, 5), (2, 1, 5),
                                    need=2), profile_rank=3)
        state.mark_captured(0)
        assert not state.is_complete
        state.mark_captured(2)
        assert state.is_complete

    def test_expiry_when_quota_unreachable(self):
        state = TIntervalState(_eta((0, 1, 3), (1, 1, 4), (2, 1, 9),
                                    need=2), profile_rank=3)
        # At chronon 5 two EIs have expired uncaptured; only one left.
        assert not state.is_expired(4)
        assert state.is_expired(5)

    def test_no_expiry_while_quota_reachable(self):
        state = TIntervalState(_eta((0, 1, 3), (1, 1, 9), (2, 1, 9),
                                    need=2), profile_rank=3)
        assert not state.is_expired(5)
        state.mark_captured(1)
        assert not state.is_expired(9)
        assert state.is_expired(10)

    def test_residual_counts_to_quota(self):
        state = TIntervalState(_eta((0, 1, 5), (1, 1, 5), (2, 1, 5),
                                    need=2), profile_rank=3)
        assert state.residual == 2
        state.mark_captured(0)
        assert state.residual == 1

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError, match="need=0"):
            TIntervalState(_eta((0, 1, 2), need=0), 1)


class TestQuotaCompleteness:
    def test_counts_quota_satisfied(self):
        profiles = ProfileSet([Profile([
            _eta((0, 1, 3), (1, 5, 7))])])
        schedule = Schedule([(0, 2)])
        assert gained_completeness(profiles, schedule) == 0
        assert gained_completeness(_needing(profiles, 1), schedule) == 1

    def test_empty_set_vacuous(self):
        assert gained_completeness(ProfileSet(), Schedule()) == 1.0


class TestRunWithQuotas:
    @pytest.fixture
    def contended(self) -> ProfileSet:
        # A 2-EI t-interval whose EIs collide with two singletons under
        # budget 1: all-or-nothing cannot win everything, 1-of-2 can.
        complex_profile = Profile([_eta((0, 2, 2), (1, 4, 4))])
        rival = Profile([_eta((2, 2, 2)), _eta((3, 4, 4))])
        return ProfileSet([complex_profile, rival])

    def test_quota_one_easier_than_all(self, contended):
        epoch = Epoch(6)
        budget = BudgetVector(1)
        strict = run_online(contended, epoch, budget, MRSFPolicy())
        relaxed = run_online(_needing(contended, 1), epoch, budget,
                             make_policy("Q-MRSF"))
        assert relaxed.report.captured >= strict.report.captured

    def test_all_required_matches_plain_semantics(self, contended):
        epoch = Epoch(6)
        budget = BudgetVector(1)
        plain = run_online(contended, epoch, budget, MRSFPolicy())
        spelled = _needing(contended, 3)
        assert list(spelled.tintervals()) == list(contended.tintervals())
        quota_run = run_online(spelled, epoch, budget, MRSFPolicy())
        assert quota_run.report.captured == plain.report.captured

    def test_quota_policy_scores_residual_to_quota(self):
        state = TIntervalState(_eta((0, 1, 5), (1, 1, 5), (2, 1, 5),
                                    need=1), profile_rank=3)
        candidate = Candidate(state, state.eta[0])
        assert make_policy("Q-MRSF").score(candidate, 1) == 1.0

    def test_quota_policy_falls_back_on_plain_state(self):
        eta = _eta((0, 1, 5), (1, 1, 5))
        state = TIntervalState(eta, profile_rank=2)
        candidate = Candidate(state, eta[0])
        assert make_policy("Q-MRSF").score(candidate, 1) == 2.0

    def test_a_quota_run_stays_on_the_block_kernel(self, contended,
                                                    caplog):
        policy = make_policy("Q-MRSF")
        assert key_of(policy) is not None
        with caplog.at_level(logging.INFO, "repro.simulation.proxy"):
            columns = run_online(_needing(contended, 1), Epoch(6),
                                 BudgetVector(1), policy)
        assert not caplog.records
        reference = run_online(_needing(contended, 1), Epoch(6),
                               BudgetVector(1), policy,
                               engine="reference")
        assert columns.report == reference.report
        assert list(columns.schedule.probes()) == \
            list(reference.schedule.probes())
