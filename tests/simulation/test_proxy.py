"""Tests for the online run over a fixed profile set."""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
    evaluate_schedule,
)
from repro.online import MEDFPolicy, MRSFPolicy, SEDFPolicy
from repro.simulation import run_online


def _profiles(*etas: list[tuple[int, int, int]]) -> ProfileSet:
    return ProfileSet([Profile([
        TInterval([ExecutionInterval(r, s, f) for r, s, f in spec])
        for spec in etas
    ])])


class TestBasicRuns:
    def test_single_tinterval_captured(self):
        profiles = _profiles([(0, 2, 5)])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 1.0
        assert result.probes_used == 1
        assert result.expired == 0

    def test_unsatisfiable_budget_zero(self):
        profiles = _profiles([(0, 2, 5)])
        result = run_online(profiles, Epoch(10), BudgetVector(0),
                            SEDFPolicy())
        assert result.gc == 0.0
        assert result.expired == 1

    def test_empty_profiles(self):
        result = run_online(ProfileSet(), Epoch(5), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 1.0
        assert result.probes_used == 0

    def test_multi_ei_tinterval_needs_all(self):
        # Two EIs at the same single chronon on different resources,
        # budget 1: impossible.
        profiles = _profiles([(0, 3, 3), (1, 3, 3)])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 0.0
        # Budget 2: both probed in the same chronon.
        result = run_online(profiles, Epoch(10), BudgetVector(2),
                            SEDFPolicy())
        assert result.gc == 1.0

    def test_report_matches_schedule_evaluation(self, arbitrage_profiles):
        result = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), MRSFPolicy())
        rescored = evaluate_schedule(arbitrage_profiles, result.schedule)
        assert rescored.captured == result.report.captured

    def test_probes_respect_budget(self, arbitrage_profiles):
        epoch = Epoch(20)
        budget = BudgetVector(1)
        result = run_online(arbitrage_profiles, epoch, budget,
                            MEDFPolicy())
        assert result.schedule.respects_budget(budget, epoch)

    def test_deterministic(self, arbitrage_profiles):
        first = run_online(arbitrage_profiles, Epoch(20),
                           BudgetVector(1), SEDFPolicy())
        second = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), SEDFPolicy())
        assert list(first.schedule.probes()) == list(
            second.schedule.probes())


class TestArrivalSemantics:
    def test_tinterval_not_probed_before_arrival(self):
        profiles = _profiles([(0, 5, 8)])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        probes = list(result.schedule.probes())
        assert all(chronon >= 5 for _r, chronon in probes)

    def test_late_arrival_still_captured(self):
        profiles = ProfileSet([
            Profile([TInterval([ExecutionInterval(0, 1, 2)])]),
            Profile([TInterval([ExecutionInterval(1, 9, 10)])]),
        ])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 1.0


class TestExpirySemantics:
    def test_expired_counted_once(self):
        # Two overlapping unit EIs on different resources, budget 1:
        # exactly one of the two t-intervals must expire.
        profiles = ProfileSet([
            Profile([TInterval([ExecutionInterval(0, 3, 3)])]),
            Profile([TInterval([ExecutionInterval(1, 3, 3)])]),
        ])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.report.captured == 1
        assert result.expired == 1

    def test_captured_plus_expired_equals_total(self, arbitrage_profiles):
        result = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), SEDFPolicy())
        assert (result.report.captured + result.expired
                == arbitrage_profiles.total_tintervals)

    def test_end_of_epoch_flush(self):
        # EI open beyond the end of a short epoch, budget zero: the
        # t-interval must still be counted (as expired).
        profiles = _profiles([(0, 2, 50)])
        result = run_online(profiles, Epoch(5), BudgetVector(0),
                            SEDFPolicy())
        assert result.report.captured + result.expired == 1


class TestDoomVisibility:
    """EI-level policies keep probing doomed t-intervals; others skip."""

    @pytest.fixture
    def doomed_scenario(self) -> ProfileSet:
        # Profile 0: a 2-EI t-interval whose first EI (r0@[1,1]) will be
        # missed because r2 is more urgent...
        # Construction: at chronon 1 both r0[1,1] and r2[1,1] are due;
        # budget 1; coverage makes r2 win (two candidates). The 2-EI
        # t-interval is then doomed, but its second EI r1[5,9] stays
        # open. A rank-aware policy should spend chronon 5+ elsewhere.
        doomed = Profile([TInterval([ExecutionInterval(0, 1, 1),
                                     ExecutionInterval(1, 5, 9)])])
        urgent = Profile([TInterval([ExecutionInterval(2, 1, 1)]),
                          TInterval([ExecutionInterval(2, 1, 1)])])
        alive = Profile([TInterval([ExecutionInterval(3, 5, 9)])])
        return ProfileSet([doomed, urgent, alive])

    def test_sedf_wastes_probe_on_doomed(self, doomed_scenario):
        result = run_online(doomed_scenario, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        # S-EDF probes resource 1 (doomed parent) and resource 3; both
        # fit in [5,9], so nothing is lost here — but the probe on r1
        # must exist, showing the doomed EI stayed a candidate.
        assert result.schedule.probe_chronons(1), \
            "EI-level policy should still probe the doomed EI"

    def test_mrsf_skips_doomed(self, doomed_scenario):
        result = run_online(doomed_scenario, Epoch(10), BudgetVector(1),
                            MRSFPolicy())
        assert not result.schedule.probe_chronons(1), \
            "rank-level policy must not probe a doomed t-interval"

    def test_medf_skips_doomed(self, doomed_scenario):
        result = run_online(doomed_scenario, Epoch(10), BudgetVector(1),
                            MEDFPolicy())
        assert not result.schedule.probe_chronons(1)


class TestIntraResourceOverlapExploitation:
    def test_one_probe_serves_simultaneously_active_eis(self):
        profiles = ProfileSet([
            Profile([TInterval([ExecutionInterval(0, 4, 6)])]),
            Profile([TInterval([ExecutionInterval(0, 4, 9)])]),
        ])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 1.0
        # Both EIs are active when the probe lands: one probe suffices.
        assert result.probes_used == 1

    def test_greedy_probing_does_not_wait_for_overlap(self):
        # EIs [2,6] and [4,9]: the proxy probes r0 at chronon 2 (the
        # only candidate then) and again at 4 — greedy, two probes, but
        # both t-intervals captured.
        profiles = ProfileSet([
            Profile([TInterval([ExecutionInterval(0, 2, 6)])]),
            Profile([TInterval([ExecutionInterval(0, 4, 9)])]),
        ])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 1.0
        assert result.probes_used == 2


class TestRuntimeBookkeeping:
    def test_runtime_recorded(self, arbitrage_profiles):
        result = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), SEDFPolicy())
        assert result.runtime_seconds >= 0.0

    def test_label_includes_preemption(self, arbitrage_profiles):
        result = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), SEDFPolicy(),
                            preemptive=False, engine="reference")
        assert result.label == "S-EDF(NP)"

    def test_summary_mentions_gc(self, arbitrage_profiles):
        result = run_online(arbitrage_profiles, Epoch(20),
                            BudgetVector(1), SEDFPolicy())
        assert "GC=" in result.summary()
