"""Tests for the baseline policies (Random, FCFS, LFF, Coverage)."""

import pytest

from repro.core import BudgetVector, Epoch, ExecutionInterval, TInterval
from repro.experiments import ExperimentConfig, make_instance
from repro.online import (
    Candidate,
    CoveragePolicy,
    FCFSPolicy,
    LeastFlexibleFirstPolicy,
    RandomPolicy,
    ScoreKey,
    SEDFPolicy,
    TIntervalState,
    key_of,
)
from repro.online.base import noise
from repro.simulation import run_online


def _candidate(resource: int, start: int, finish: int) -> Candidate:
    eta = TInterval([ExecutionInterval(resource, start, finish)])
    state = TIntervalState(eta, 1)
    return Candidate(state, state.eta[0])


class TestRandomPolicy:
    """RANDOM is the row ``ScoreKey(noise=1)``: each EI's fixed draw."""

    def test_is_the_noise_row(self):
        assert RandomPolicy().key == ScoreKey(noise=1)
        assert key_of(RandomPolicy()) == ScoreKey(noise=1)
        assert "score" not in vars(RandomPolicy)

    def test_deterministic_across_instances_and_chronons(self):
        candidate = _candidate(0, 1, 5)
        a = RandomPolicy().score(candidate, 2)
        assert RandomPolicy().score(candidate, 2) == a
        assert RandomPolicy().score(candidate, 4) == a

    def test_scores_are_the_draw_of_the_ids(self):
        policy = RandomPolicy()
        for tinterval_id in range(20):
            eta = TInterval([ExecutionInterval(0, 1, 9)], tinterval_id, 3)
            state = TIntervalState(eta, 1)
            score = policy.score(Candidate(state, state.eta[0]), 3)
            assert score == float(noise(3, tinterval_id, 0))
            assert 0.0 <= score < 2 ** 16

    def test_different_candidates_get_different_scores(self):
        policy = RandomPolicy()
        eta = TInterval([ExecutionInterval(r, 1, 9) for r in range(10)],
                        0, 0)
        state = TIntervalState(eta, 10)
        scores = {policy.score(Candidate(state, ei), 1) for ei in state.eta}
        assert len(scores) > 1


class TestFCFSPolicy:
    def test_prefers_earlier_start(self):
        policy = FCFSPolicy()
        early = _candidate(0, 1, 9)
        late = _candidate(1, 5, 9)
        assert policy.score(early, 6) < policy.score(late, 6)


class TestLFFPolicy:
    def test_prefers_narrower_remaining_window(self):
        policy = LeastFlexibleFirstPolicy()
        tight = _candidate(0, 1, 6)
        loose = _candidate(1, 1, 12)
        assert policy.score(tight, 5) < policy.score(loose, 5)

    def test_remaining_counts_from_current_chronon(self):
        policy = LeastFlexibleFirstPolicy()
        candidate = _candidate(0, 1, 10)
        assert policy.score(candidate, 8) == 3.0  # chronons 8, 9, 10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("preemptive", [True, False], ids=["P", "NP"])
    def test_ranks_exactly_as_s_edf(self, seed, preemptive):
        # Every candidate is active, so LFF's score is S-EDF's plus one.
        config = ExperimentConfig(
            epoch_length=40, num_resources=10, num_profiles=14,
            intensity=5.0, window=6, budget=1, repetitions=1,
            grouping="overlap", seed=seed)
        _trace, profiles = make_instance(config, 0)
        lff, sedf = (run_online(profiles, config.epoch, config.budget_vector,
                                policy, preemptive=preemptive,
                                engine="reference")
                     for policy in (LeastFlexibleFirstPolicy(), SEDFPolicy()))
        assert list(lff.schedule.probes()) == list(sedf.schedule.probes())
        assert lff.report == sedf.report


class TestStaticRankPolicy:
    def test_prefers_simpler_profiles(self):
        from repro.online import StaticRankPolicy
        policy = StaticRankPolicy()
        eta = TInterval([ExecutionInterval(0, 1, 9)])
        simple = TIntervalState(eta, profile_rank=1)
        complex_state = TIntervalState(eta, profile_rank=3)
        assert (policy.score(Candidate(simple, eta[0]), 1)
                < policy.score(Candidate(complex_state, eta[0]), 1))

    def test_ignores_capture_progress(self):
        from repro.online import StaticRankPolicy
        policy = StaticRankPolicy()
        eta = TInterval([ExecutionInterval(0, 1, 9),
                         ExecutionInterval(1, 1, 9)])
        state = TIntervalState(eta, profile_rank=2)
        before = policy.score(Candidate(state, eta[0]), 1)
        state.mark_captured(1)
        after = policy.score(Candidate(state, eta[0]), 1)
        assert before == after


class TestMostResidualFirstPolicy:
    def test_is_inverse_of_mrsf(self):
        from repro.online import MostResidualFirstPolicy, MRSFPolicy
        anti = MostResidualFirstPolicy()
        mrsf = MRSFPolicy()
        eta = TInterval([ExecutionInterval(0, 1, 9),
                         ExecutionInterval(1, 1, 9)])
        near = TIntervalState(eta, profile_rank=2)
        near.mark_captured(1)
        far = TIntervalState(eta, profile_rank=2)
        near_candidate = Candidate(near, eta[0])
        far_candidate = Candidate(far, eta[0])
        assert mrsf.score(near_candidate, 1) < mrsf.score(far_candidate, 1)
        assert anti.score(near_candidate, 1) > anti.score(far_candidate, 1)

    def test_underperforms_mrsf_on_contended_workload(self):
        from repro.core import BudgetVector, Epoch
        from repro.experiments import ExperimentConfig, make_instance
        from repro.online import MostResidualFirstPolicy, MRSFPolicy

        config = ExperimentConfig(
            epoch_length=150, num_resources=30, num_profiles=50,
            intensity=10.0, window=5, repetitions=1, seed=55)
        _trace, profiles = make_instance(config, 0)
        mrsf = run_online(profiles, config.epoch, config.budget_vector,
                          MRSFPolicy())
        anti = run_online(profiles, config.epoch, config.budget_vector,
                          MostResidualFirstPolicy())
        assert mrsf.gc >= anti.gc


class TestCoveragePolicy:
    def test_prefers_most_covered_resource(self):
        policy = CoveragePolicy()
        a1 = _candidate(0, 1, 9)
        a2 = _candidate(0, 2, 8)
        b = _candidate(1, 1, 9)
        policy.observe_candidates([a1, a2, b], 3)
        assert policy.score(a1, 3) < policy.score(b, 3)

    def test_runs_in_simulator(self, arbitrage_profiles):
        result = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), CoveragePolicy())
        assert 0.0 <= result.gc <= 1.0
