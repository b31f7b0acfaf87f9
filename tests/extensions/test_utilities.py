"""Tests for utility-weighted completeness (paper §6 extension)."""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    Schedule,
    TInterval,
)
from repro.extensions import (
    UtilityWeightedPolicy,
    UtilityWeights,
    run_weighted,
    weighted_completeness,
)
from repro.experiments import ExperimentConfig, make_instance
from repro.online import (
    Candidate,
    SEDFPolicy,
    TIntervalState,
    available_policies,
    make_policy,
)
from repro.simulation import run_online


def _profiles() -> ProfileSet:
    p0 = Profile([TInterval([ExecutionInterval(0, 1, 3)]),
                  TInterval([ExecutionInterval(0, 5, 7)])])
    p1 = Profile([TInterval([ExecutionInterval(1, 1, 3)])])
    return ProfileSet([p0, p1])


class TestUtilityWeights:
    def test_default_is_one(self):
        weights = UtilityWeights.uniform()
        assert weights.for_profile(0) == 1.0
        assert weights.for_tinterval(0, 0) == 1.0

    def test_profile_weight_inherited(self):
        weights = UtilityWeights(profile_weights={0: 3.0})
        assert weights.for_tinterval(0, 1) == 3.0
        assert weights.for_tinterval(1, 0) == 1.0

    def test_tinterval_weight_overrides_profile(self):
        weights = UtilityWeights(profile_weights={0: 3.0},
                                 tinterval_weights={(0, 1): 9.0})
        assert weights.for_tinterval(0, 0) == 3.0
        assert weights.for_tinterval(0, 1) == 9.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            UtilityWeights(profile_weights={0: 0.0})
        with pytest.raises(ValueError):
            UtilityWeights(tinterval_weights={(0, 0): -1.0})


class TestWeightedCompleteness:
    def test_uniform_equals_plain_gc(self):
        profiles = _profiles()
        schedule = Schedule([(0, 2), (1, 2)])
        weighted = weighted_completeness(profiles, schedule,
                                         UtilityWeights.uniform())
        assert weighted == pytest.approx(2 / 3)

    def test_weights_shift_the_ratio(self):
        profiles = _profiles()
        schedule = Schedule([(1, 2)])  # captures only p1's t-interval
        weights = UtilityWeights(profile_weights={1: 8.0})
        # gained 8 of total (1 + 1 + 8).
        assert weighted_completeness(profiles, schedule, weights) == \
            pytest.approx(0.8)

    def test_empty_set_vacuous(self):
        assert weighted_completeness(ProfileSet(), Schedule(),
                                     UtilityWeights.uniform()) == 1.0


class TestUtilityWeightedPolicy:
    def test_high_utility_scores_lower(self):
        weights = UtilityWeights(profile_weights={0: 10.0})
        policy = UtilityWeightedPolicy(SEDFPolicy(), weights)
        eta_hi = TInterval([ExecutionInterval(0, 1, 5)],
                           tinterval_id=0, profile_id=0)
        eta_lo = TInterval([ExecutionInterval(1, 1, 5)],
                           tinterval_id=0, profile_id=1)
        hi = Candidate(TIntervalState(eta_hi, 1), eta_hi[0])
        lo = Candidate(TIntervalState(eta_lo, 1), eta_lo[0])
        assert policy.score(hi, 1) < policy.score(lo, 1)

    def test_base_order_kept_within_equal_utilities(self):
        policy = UtilityWeightedPolicy(SEDFPolicy(),
                                       UtilityWeights.uniform())
        urgent = TInterval([ExecutionInterval(0, 1, 2)],
                           tinterval_id=0, profile_id=0)
        lax = TInterval([ExecutionInterval(1, 1, 9)],
                        tinterval_id=1, profile_id=0)
        c_urgent = Candidate(TIntervalState(urgent, 1), urgent[0])
        c_lax = Candidate(TIntervalState(lax, 1), lax[0])
        assert policy.score(c_urgent, 1) < policy.score(c_lax, 1)

    def test_name_composition(self):
        policy = UtilityWeightedPolicy(SEDFPolicy(),
                                       UtilityWeights.uniform())
        assert policy.name == "U[S-EDF]"


class TestRunWeighted:
    def test_uniform_weights_match_plain_run(self):
        profiles = _profiles()
        epoch = Epoch(10)
        budget = BudgetVector(1)
        weighted = run_weighted(profiles, epoch, budget, SEDFPolicy(),
                                UtilityWeights.uniform())
        assert weighted.weighted_gc == pytest.approx(weighted.result.gc)

    def test_high_utility_tinterval_prioritized_under_contention(self):
        # Two unit t-intervals collide at chronon 3; only one fits.
        p0 = Profile([TInterval([ExecutionInterval(0, 3, 3)])])
        p1 = Profile([TInterval([ExecutionInterval(1, 3, 3)])])
        profiles = ProfileSet([p0, p1])
        epoch = Epoch(5)
        budget = BudgetVector(1)

        # Without weights, the tie breaks to resource 0.
        plain = run_online(profiles, epoch, budget, SEDFPolicy())
        assert plain.schedule.probe_chronons(0) == [3]

        # Weighting p1 higher must flip the decision.
        weights = UtilityWeights(profile_weights={1: 5.0})
        weighted = run_weighted(profiles, epoch, budget, SEDFPolicy(),
                                weights)
        assert weighted.result.schedule.probe_chronons(1) == [3]
        assert weighted.weighted_gc == pytest.approx(5 / 6)


#: Contended enough that an EI-level policy that saw doom, or Coverage
#: blind to the candidate bag, would probe differently.
_CONFIG = ExperimentConfig(
    epoch_length=40, num_resources=10, num_profiles=14, intensity=10.0,
    window=4, budget=1, repetitions=1, grouping="overlap", seed=2)


@pytest.mark.parametrize("preemptive", [True, False], ids=["P", "NP"])
@pytest.mark.parametrize("name", [
    name for name in available_policies() if make_policy(name).key])
def test_unit_weights_keep_the_base_schedule(name, preemptive):
    """The base sees what it sees alone — its level and every chronon's
    candidate bag (Coverage counts it) — so unit weights change
    nothing."""
    _trace, profiles = make_instance(_CONFIG, 0)
    epoch, budget = _CONFIG.epoch, _CONFIG.budget_vector
    base = run_online(profiles, epoch, budget, make_policy(name),
                      preemptive=preemptive)
    weighted = run_weighted(profiles, epoch, budget, make_policy(name),
                            UtilityWeights.uniform(), preemptive=preemptive)
    assert list(weighted.result.schedule.probes()) == \
        list(base.schedule.probes())
    assert weighted.weighted_gc == pytest.approx(base.gc)
