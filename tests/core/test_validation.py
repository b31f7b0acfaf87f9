"""Tests for instance validation."""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
    validate_instance,
)


def _set(*profiles) -> ProfileSet:
    return ProfileSet(list(profiles))


class TestCleanInstances:
    def test_ok_instance_has_no_findings(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 1, 5)]),
            TInterval([ExecutionInterval(1, 3, 8)]),
        ]))
        report = validate_instance(profiles, Epoch(10), BudgetVector(1))
        assert report.ok
        assert report.diagnostics == ()

    def test_empty_set_is_ok(self):
        report = validate_instance(ProfileSet(), Epoch(5),
                                   BudgetVector(1))
        assert report.ok


class TestErrors:
    def test_ei_outside_epoch(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 20, 25)])]))
        report = validate_instance(profiles, Epoch(10), BudgetVector(1))
        assert not report.ok
        assert report.errors()[0].code == "ei-outside-epoch"
        assert report.uncapturable_keys() == {(0, 0)}

    def test_simultaneous_demand(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 3, 3),
                       ExecutionInterval(1, 3, 3)])]))
        report = validate_instance(profiles, Epoch(10), BudgetVector(1))
        codes = [d.code for d in report.errors()]
        assert "simultaneous-demand" in codes

    def test_simultaneous_demand_ok_with_budget_two(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 3, 3),
                       ExecutionInterval(1, 3, 3)])]))
        report = validate_instance(profiles, Epoch(10), BudgetVector(2))
        assert report.ok

    def test_zero_budget_window(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 2, 4)])]))
        budget = BudgetVector(1, overrides={2: 0, 3: 0, 4: 0})
        report = validate_instance(profiles, Epoch(10), budget)
        assert [d.code for d in report.errors()] == ["zero-budget-window"]

    @pytest.mark.parametrize("need, codes", [
        (3, ["ei-outside-epoch"]), (2, ["ei-outside-epoch"]), (1, [])])
    def test_lost_eis_count_against_the_need(self, need, codes):
        # Two of three EIs open past the epoch: only a need of one is
        # still reachable.
        profiles = _set(Profile([TInterval([
            ExecutionInterval(0, 3, 3), ExecutionInterval(1, 20, 20),
            ExecutionInterval(2, 21, 22)], need=need)]))
        report = validate_instance(profiles, Epoch(10), BudgetVector(1))
        assert [d.code for d in report.errors()] == codes

    def test_simultaneous_demand_is_not_an_error_below_the_size(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 3, 3),
                       ExecutionInterval(1, 3, 3)], need=1)]))
        assert validate_instance(profiles, Epoch(10), BudgetVector(1)).ok

    def test_partial_budget_window_is_fine(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 2, 4)])]))
        budget = BudgetVector(1, overrides={2: 0, 3: 0})
        report = validate_instance(profiles, Epoch(10), budget)
        assert report.ok


class TestWarnings:
    def test_empty_profile(self):
        report = validate_instance(_set(Profile([], name="ghost")),
                                   Epoch(5), BudgetVector(1))
        assert report.ok  # warnings don't fail validation
        assert report.warnings()[0].code == "empty-profile"

    def test_duplicate_tinterval(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 1, 3)]),
            TInterval([ExecutionInterval(0, 1, 3)]),
        ]))
        report = validate_instance(profiles, Epoch(5), BudgetVector(1))
        warning = report.warnings()[0]
        assert warning.code == "duplicate-tinterval"
        assert warning.tinterval_id == 1

    def test_same_eis_different_order_are_duplicates(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 1, 3),
                       ExecutionInterval(1, 2, 4)]),
            TInterval([ExecutionInterval(1, 2, 4),
                       ExecutionInterval(0, 1, 3)]),
        ]))
        report = validate_instance(profiles, Epoch(5), BudgetVector(1))
        assert [d.code for d in report.warnings()] == [
            "duplicate-tinterval"]


class TestReportHelpers:
    def test_str_rendering(self):
        profiles = _set(Profile([
            TInterval([ExecutionInterval(0, 20, 25)])]))
        report = validate_instance(profiles, Epoch(10), BudgetVector(1))
        text = str(report.errors()[0])
        assert "ei-outside-epoch" in text
        assert "profile 0" in text

    def test_generated_workloads_validate_clean(self):
        from repro.experiments import baseline, make_instance
        config = baseline("smoke")
        _trace, profiles = make_instance(config, 0)
        report = validate_instance(profiles, config.epoch,
                                   config.budget_vector)
        assert report.ok, [str(d) for d in report.errors()]
