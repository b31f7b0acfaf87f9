"""Tests for the Local-Ratio offline approximation."""

import numpy as np
import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.offline import LocalRatioApproximation, MILPSolver, local_ratio


def _random_unit_instance(seed: int, num_resources: int = 4,
                          num_profiles: int = 4, horizon: int = 12
                          ) -> tuple[ProfileSet, Epoch]:
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(num_profiles):
        etas = []
        for _ in range(int(rng.integers(1, 4))):
            count = int(rng.integers(1, 3))
            eis = [
                ExecutionInterval(int(rng.integers(0, num_resources)),
                                  c := int(rng.integers(1, horizon + 1)),
                                  c)
                for _ in range(count)
            ]
            etas.append(TInterval(eis))
        profiles.append(Profile(etas))
    return ProfileSet(profiles), Epoch(horizon)


def _random_general_instance(seed: int) -> tuple[ProfileSet, Epoch]:
    rng = np.random.default_rng(seed)
    horizon = 15
    profiles = []
    for _ in range(4):
        etas = []
        for _ in range(int(rng.integers(1, 4))):
            eis = []
            for _ in range(int(rng.integers(1, 3))):
                start = int(rng.integers(1, horizon))
                finish = min(horizon, start + int(rng.integers(0, 4)))
                eis.append(ExecutionInterval(int(rng.integers(0, 5)),
                                             start, finish))
            etas.append(TInterval(eis))
        profiles.append(Profile(etas))
    return ProfileSet(profiles), Epoch(horizon)


class TestFeasibilityAndBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_optimum_unit(self, seed):
        profiles, epoch = _random_unit_instance(seed)
        budget = BudgetVector(1)
        approx = LocalRatioApproximation().solve(profiles, epoch, budget)
        optimum = MILPSolver().solve(profiles, epoch, budget)
        assert approx.report.captured <= optimum.report.captured

    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_optimum_general(self, seed):
        profiles, epoch = _random_general_instance(seed + 100)
        budget = BudgetVector(1)
        approx = LocalRatioApproximation().solve(profiles, epoch, budget)
        optimum = MILPSolver().solve(profiles, epoch, budget)
        assert approx.report.captured <= optimum.report.captured

    @pytest.mark.parametrize("seed", range(5))
    def test_schedule_feasible(self, seed):
        profiles, epoch = _random_general_instance(seed + 200)
        budget = BudgetVector(1)
        approx = LocalRatioApproximation().solve(profiles, epoch, budget)
        assert approx.schedule.respects_budget(budget, epoch)

    @pytest.mark.parametrize("seed", range(5))
    def test_approximation_ratio_on_unit_instances(self, seed):
        # Guarantee: >= OPT / (2k) for C = 1 on P^[1] (here we check the
        # looser OPT/(2k+1) bound to be robust to ties).
        profiles, epoch = _random_unit_instance(seed + 300)
        budget = BudgetVector(1)
        rank = profiles.rank
        approx = LocalRatioApproximation().solve(profiles, epoch, budget)
        optimum = MILPSolver().solve(profiles, epoch, budget)
        bound = optimum.report.captured / (2 * rank + 1)
        assert approx.report.captured >= bound - 1e-9

    def test_accepted_all_captured_by_schedule(self):
        profiles, epoch = _random_general_instance(321)
        budget = BudgetVector(1)
        approx = LocalRatioApproximation().solve(profiles, epoch, budget)
        # Every accepted t-interval must actually be captured by the
        # produced schedule (the matcher guarantees assignment).
        captured_by_schedule = sum(
            1 for eta in profiles.tintervals()
            if approx.schedule.captures_tinterval(eta))
        assert captured_by_schedule >= approx.report.captured
        assert approx.extras["gc_with_free_riders"] >= approx.gc


class TestDegenerateInputs:
    def test_empty_profiles(self):
        result = LocalRatioApproximation().solve(ProfileSet(), Epoch(5),
                                                 BudgetVector(1))
        assert result.report.total == 0

    def test_self_infeasible_excluded(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 3, 3),
                       ExecutionInterval(1, 3, 3)])])])
        result = LocalRatioApproximation().solve(profiles, Epoch(5),
                                                 BudgetVector(1))
        assert result.report.captured == 0

    def test_no_lp_fallback(self, monkeypatch):
        profiles, epoch = _random_unit_instance(7)
        budget = BudgetVector(1)
        with_lp = LocalRatioApproximation().solve(profiles, epoch, budget)
        monkeypatch.setattr(local_ratio, "MAX_LP_VARIABLES", 0)
        without_lp = LocalRatioApproximation().solve(
            profiles, epoch, budget)
        assert without_lp.schedule.respects_budget(budget, epoch)
        assert with_lp.schedule.respects_budget(budget, epoch)

    def test_lp_variable_cap_falls_back(self, monkeypatch):
        profiles, epoch = _random_unit_instance(8)
        monkeypatch.setattr(local_ratio, "MAX_LP_VARIABLES", 1)
        keys = [(0, 0), (0, 1)]
        assert local_ratio.fractional_guidance(
            keys, {}, epoch, BudgetVector(1), True, {}) \
            == dict.fromkeys(keys, local_ratio.GUIDANCE_SCALE)
        result = LocalRatioApproximation().solve(profiles, epoch,
                                                 BudgetVector(1))
        assert result.report.captured >= 0

    def test_extras_report_counts(self):
        profiles, epoch = _random_unit_instance(9)
        result = LocalRatioApproximation().solve(profiles, epoch,
                                                 BudgetVector(1))
        assert result.extras["unit_width_input"] == 1.0
        assert result.extras["accepted"] == result.report.captured
