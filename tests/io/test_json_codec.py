"""Tests for JSON serialization round-trips."""

import json

import pytest
from hypothesis import given, settings

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    ProfileSet,
    Schedule,
    TInterval,
)
from repro.io import (
    budget_from_jsonable,
    budget_to_jsonable,
    load_profiles,
    load_result,
    profiles_from_jsonable,
    profiles_to_jsonable,
    result_from_jsonable,
    result_to_jsonable,
    save_profiles,
    save_result,
    schedule_from_jsonable,
    schedule_to_jsonable,
)
from repro.online import MRSFPolicy
from repro.simulation import run_online

from tests.properties.strategies import profile_sets


def _profiles() -> ProfileSet:
    return ProfileSet([
        Profile([
            TInterval([ExecutionInterval(0, 1, 4),
                       ExecutionInterval(1, 2, 6)]),
            TInterval([ExecutionInterval(2, 8, 8)]),
        ], name="alpha"),
        Profile([TInterval([ExecutionInterval(0, 3, 9)])], name="beta"),
    ])


class TestProfilesRoundTrip:
    def test_structure_preserved(self):
        original = _profiles()
        restored = profiles_from_jsonable(profiles_to_jsonable(original))
        assert len(restored) == len(original)
        assert restored.total_tintervals == original.total_tintervals
        assert restored.rank == original.rank
        for original_profile, restored_profile in zip(original,
                                                      restored):
            assert restored_profile.name == original_profile.name
            for original_eta, restored_eta in zip(original_profile,
                                                  restored_profile):
                assert restored_eta.eis == original_eta.eis

    def test_jsonable_is_json_safe(self):
        payload = profiles_to_jsonable(_profiles())
        assert json.loads(json.dumps(payload)) == payload

    def test_file_round_trip(self, tmp_path):
        original = _profiles()
        path = tmp_path / "profiles.json"
        save_profiles(original, path)
        restored = load_profiles(path)
        assert restored.total_tintervals == original.total_tintervals

    @given(profiles=profile_sets(quotas=True))
    @settings(max_examples=40)
    def test_round_trip_property(self, profiles):
        restored = profiles_from_jsonable(
            profiles_to_jsonable(profiles))
        assert [[eta.eis for eta in profile] for profile in restored] \
            == [[eta.eis for eta in profile] for profile in profiles]
        assert list(restored.tintervals()) == list(profiles.tintervals())

    def test_need_is_written_only_below_the_size(self):
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 4)]),
            TInterval([ExecutionInterval(0, 1, 4),
                       ExecutionInterval(1, 2, 6)], need=1)])])
        (entry,) = profiles_to_jsonable(profiles)["data"]
        assert entry["tintervals"] == [
            [[0, 1, 4]], {"eis": [[0, 1, 4], [1, 2, 6]], "need": 1}]

    @pytest.mark.parametrize("record, words", [
        ({"eis": [[0, 1, 4], [1, 2, 6]], "need": need},
         rf"has 2 EIs and needs 1\.\.2 of them, not {need!r}")
        for need in (0, 3, "1")] + [
        (record, r"is not a list of \[resource, start, finish\] triples")
        for record in ({"need": 1}, {"eis": None, "need": 1},
                       {"eis": [[0, 1]]}, 7)] + [
        (record, r"holds .*: a resource, start and finish are integers")
        for record in ([[0.5, 1, 4]], [[0, 1, 5.9]], [[0, True, 4]],
                       {"eis": [[0, "1", 4]], "need": 1})] + [
        ([[0, 0, 4]], r"is refused: EI start must be >= 1, got 0"),
        ([], r"is refused: a t-interval must contain at least one EI")])
    def test_a_bad_need_is_refused_by_name(self, record, words):
        payload = profiles_to_jsonable(_profiles())
        payload["data"][0]["tintervals"][0] = record
        with pytest.raises(ModelError,
                           match=r"profile 0 t-interval 0 " + words):
            profiles_from_jsonable(payload)


class TestScheduleRoundTrip:
    def test_round_trip(self):
        schedule = Schedule([(0, 3), (1, 3), (0, 7)])
        restored = schedule_from_jsonable(schedule_to_jsonable(schedule))
        assert list(restored.probes()) == list(schedule.probes())

    def test_empty(self):
        restored = schedule_from_jsonable(
            schedule_to_jsonable(Schedule()))
        assert len(restored) == 0


class TestBudgetRoundTrip:
    def test_constant(self):
        budget = BudgetVector(3)
        assert budget_from_jsonable(budget_to_jsonable(budget)) == budget

    def test_with_overrides(self):
        budget = BudgetVector(1, overrides={5: 4, 9: 0})
        assert budget_from_jsonable(budget_to_jsonable(budget)) == budget


class TestResultRoundTrip:
    def test_full_round_trip(self):
        profiles = _profiles()
        result = run_online(profiles, Epoch(12), BudgetVector(1),
                            MRSFPolicy())
        restored = result_from_jsonable(result_to_jsonable(result))
        assert restored.label == result.label
        assert restored.gc == result.gc
        assert restored.report.per_profile == result.report.per_profile
        assert restored.report.per_rank == result.report.per_rank
        assert list(restored.schedule.probes()) == \
            list(result.schedule.probes())
        assert restored.expired == result.expired

    def test_batch_engine_result_round_trip(self):
        """A block-kernel result — schedule and breakdowns still
        columns — encodes like any other and decodes to equal values."""
        result = run_online(_profiles(), Epoch(12), BudgetVector(1),
                            MRSFPolicy(), engine="batch")
        payload = result_to_jsonable(result)
        assert json.loads(json.dumps(payload)) == payload
        restored = result_from_jsonable(payload)
        assert restored.report == result.report
        assert result.report == restored.report
        assert list(restored.schedule.probes()) == \
            list(result.schedule.probes())
        assert (restored.label, restored.probes_used, restored.expired,
                restored.extras) == (result.label, result.probes_used,
                                     result.expired, result.extras)
        assert result_to_jsonable(restored) == payload

    def test_file_round_trip(self, tmp_path):
        profiles = _profiles()
        result = run_online(profiles, Epoch(12), BudgetVector(1),
                            MRSFPolicy())
        path = tmp_path / "result.json"
        save_result(result, path)
        restored = load_result(path)
        assert restored.gc == result.gc


class TestEnvelopeValidation:
    def test_wrong_format_rejected(self):
        payload = profiles_to_jsonable(_profiles())
        payload["format"] = "repro/schedule"
        with pytest.raises(ModelError, match="format"):
            profiles_from_jsonable(payload)

    def test_wrong_version_rejected(self):
        payload = profiles_to_jsonable(_profiles())
        payload["version"] = 99
        with pytest.raises(ModelError, match="version"):
            profiles_from_jsonable(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(ModelError, match="envelope"):
            schedule_from_jsonable([1, 2, 3])
