"""Tests for the online policy framework: states, selection, preemption."""

import pytest

from repro.core import ExecutionInterval, Schedule, TInterval
from repro.online import (
    Candidate,
    MEDFPolicy,
    MRSFPolicy,
    SEDFPolicy,
    TIntervalState,
    plan_chronon,
    select_probes,
    settle_chronon,
)
from repro.online.base import EPOCH_OVER, retire


def _state(*specs: tuple[int, int, int], rank: int | None = None
           ) -> TIntervalState:
    eta = TInterval([ExecutionInterval(r, s, f) for r, s, f in specs])
    return TIntervalState(eta, profile_rank=rank or len(specs))


class TestTIntervalState:
    def test_initial_state(self):
        state = _state((0, 1, 5), (1, 3, 8))
        assert state.captured_count == 0
        assert state.residual == 2
        assert not state.is_complete
        assert not state.committed

    def test_mark_captured(self):
        state = _state((0, 1, 5), (1, 3, 8))
        state.mark_captured(0)
        assert state.captured_count == 1
        assert state.residual == 1
        assert not state.is_complete
        state.mark_captured(1)
        assert state.is_complete

    def test_is_expired_when_uncaptured_deadline_passes(self):
        state = _state((0, 1, 5), (1, 3, 8))
        assert not state.is_expired(5)
        assert state.is_expired(6)

    def test_not_expired_if_passed_ei_was_captured(self):
        state = _state((0, 1, 5), (1, 3, 8))
        state.mark_captured(0)
        assert not state.is_expired(6)

    def test_single_ei_deadline_needs_no_order(self):
        # Rank-1 t-intervals answer from their one EI, before and after
        # its capture, without ever building a deadline order.
        state = _state((0, 2, 5))
        assert state.earliest_uncaptured_deadline == 5
        assert not state.is_expired(5)
        assert state.is_expired(6)
        state.mark_captured(0)
        assert state.earliest_uncaptured_deadline is None
        assert not state.is_expired(6)
        assert state._deadline_order is None

    def test_earliest_uncaptured_deadline_follows_captures(self):
        # Equal deadlines keep declaration order; captures move the
        # cursor to the next deadline.
        state = _state((0, 1, 7), (1, 2, 4), (2, 3, 7))
        assert state.earliest_uncaptured_deadline == 4
        assert state._deadline_order == [1, 0, 2]
        state.mark_captured(1)
        assert state.earliest_uncaptured_deadline == 7
        state.mark_captured(2)
        assert state.earliest_uncaptured_deadline == 7
        state.mark_captured(0)
        assert state.earliest_uncaptured_deadline is None

    def test_probeable_eis_active_and_uncaptured(self):
        state = _state((0, 1, 5), (1, 3, 8))
        assert [ei.resource_id for ei in state.probeable_eis(2)] == [0]
        assert [ei.resource_id for ei in state.probeable_eis(4)] == [0, 1]
        state.mark_captured(0)
        assert [ei.resource_id for ei in state.probeable_eis(4)] == [1]

    def test_uncaptured_eis(self):
        state = _state((0, 1, 5), (1, 3, 8))
        state.mark_captured(1)
        assert [ei.resource_id for ei in state.uncaptured_eis()] == [0]

    def test_key(self):
        eta = TInterval([ExecutionInterval(0, 1, 2)],
                        tinterval_id=3, profile_id=7)
        assert TIntervalState(eta, 1).key == (7, 3)


class TestSelectProbes:
    def test_budget_zero_selects_nothing(self):
        state = _state((0, 1, 5))
        candidates = [Candidate(state, state.eta[0])]
        assert select_probes(SEDFPolicy(), candidates, 1, 0, True) == []

    def test_empty_candidates(self):
        assert select_probes(SEDFPolicy(), [], 1, 3, True) == []

    def test_selects_earliest_deadline(self):
        urgent = _state((0, 1, 3))
        relaxed = _state((1, 1, 9))
        candidates = [Candidate(relaxed, relaxed.eta[0]),
                      Candidate(urgent, urgent.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 1, 1, True)
        assert [d.resource_id for d in decisions] == [0]
        assert decisions[0].selected.state is urgent

    def test_budget_limits_selection(self):
        states = [_state((i, 1, 3 + i)) for i in range(5)]
        candidates = [Candidate(s, s.eta[0]) for s in states]
        decisions = select_probes(SEDFPolicy(), candidates, 1, 2, True)
        assert [d.resource_id for d in decisions] == [0, 1]

    def test_same_resource_consumes_one_probe(self):
        a = _state((0, 1, 3))
        b = _state((0, 1, 4))
        c = _state((1, 1, 9))
        candidates = [Candidate(s, s.eta[0]) for s in (a, b, c)]
        decisions = select_probes(SEDFPolicy(), candidates, 1, 2, True)
        assert [d.resource_id for d in decisions] == [0, 1]

    def test_coverage_tie_break(self):
        # Equal deadlines: resource 1 serves two candidates, resource 0
        # serves one -> resource 1 wins despite the higher id.
        single = _state((0, 1, 5))
        double_a = _state((1, 1, 5))
        double_b = _state((1, 2, 5))
        candidates = [Candidate(single, single.eta[0]),
                      Candidate(double_a, double_a.eta[0]),
                      Candidate(double_b, double_b.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 2, 1, True)
        assert [d.resource_id for d in decisions] == [1]


class TestNonPreemptiveSelection:
    def test_committed_first(self):
        committed = _state((0, 1, 9))
        committed.committed = True
        urgent_fresh = _state((1, 1, 2))
        candidates = [Candidate(urgent_fresh, urgent_fresh.eta[0]),
                      Candidate(committed, committed.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 1, 1, False)
        # Despite the fresher deadline, the committed t-interval wins.
        assert [d.resource_id for d in decisions] == [0]

    def test_leftover_budget_goes_to_fresh(self):
        committed = _state((0, 1, 9))
        committed.committed = True
        fresh = _state((1, 1, 2))
        candidates = [Candidate(fresh, fresh.eta[0]),
                      Candidate(committed, committed.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 1, 2, False)
        assert sorted(d.resource_id for d in decisions) == [0, 1]

    def test_preemptive_ignores_commitment(self):
        committed = _state((0, 1, 9))
        committed.committed = True
        fresh = _state((1, 1, 2))
        candidates = [Candidate(fresh, fresh.eta[0]),
                      Candidate(committed, committed.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 1, 1, True)
        assert [d.resource_id for d in decisions] == [1]


def apply_probes(decisions, candidates, chronon):
    """Settle a round in which every decided probe was answered."""
    answered = {decision.resource_id for decision in decisions}
    return [candidate for candidate, _completed in settle_chronon(
        decisions, answered, candidates, chronon, Schedule())]


class TestApplyProbes:
    def test_captures_all_active_eis_on_probed_resource(self):
        a = _state((0, 1, 5))
        b = _state((0, 3, 8), (1, 4, 9))
        candidates = [Candidate(a, a.eta[0]), Candidate(b, b.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 4, 1, True)
        captured = apply_probes(decisions, candidates, 4)
        assert len(captured) == 2
        assert a.is_complete
        assert b.captured_count == 1

    def test_capture_commits_tinterval(self):
        a = _state((0, 1, 5))
        candidates = [Candidate(a, a.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 2, 1, True)
        apply_probes(decisions, candidates, 2)
        assert a.committed

    def test_inactive_ei_not_captured(self):
        a = _state((0, 1, 3))
        b = _state((0, 6, 9))
        candidates = [Candidate(a, a.eta[0]), Candidate(b, b.eta[0])]
        decisions = select_probes(SEDFPolicy(), [candidates[0]], 2, 1,
                                  True)
        apply_probes(decisions, candidates, 2)
        assert a.is_complete
        assert b.captured_count == 0


class TestPlanChronon:
    def _doomed_with_open_ei(self) -> TIntervalState:
        # EI 0's deadline passes at 3 uncaptured; EI 1 stays open to 9.
        return _state((0, 1, 2), (1, 1, 9))

    def test_ei_level_policy_keeps_a_doomed_tintervals_open_eis(self):
        state = self._doomed_with_open_ei()
        active, doomed, candidates, decisions = plan_chronon(
            [state], SEDFPolicy(), 3, 1, True)
        assert active == doomed == [state]
        assert [(c.state, c.ei.ei_id) for c in candidates] == [(state, 1)]
        assert [d.resource_id for d in decisions] == [1]

    @pytest.mark.parametrize("policy", [MRSFPolicy(), MEDFPolicy()])
    def test_rank_and_multi_ei_levels_skip_them(self, policy):
        state = self._doomed_with_open_ei()
        active, doomed, candidates, decisions = plan_chronon(
            [state], policy, 3, 1, True)
        # The carcass stays (its window is open) but attracts no probe.
        assert active == doomed == [state]
        assert list(candidates) == [] and decisions == []

    def test_doom_is_reported_exactly_once(self):
        state = self._doomed_with_open_ei()
        reports = []
        active = [state]
        for chronon in range(1, 12):
            active, doomed, _candidates, _decisions = plan_chronon(
                active, SEDFPolicy(), chronon, 0, True)
            reports += [(chronon, s) for s in doomed]
        assert reports == [(3, state)]
        assert active == []  # the carcass left when EI 1 closed at 10
        assert retire([state], EPOCH_OVER) == ([], [])

    def test_retire_at_epoch_over_dooms_whatever_is_incomplete(self):
        done, open_, carcass = (_state((0, 1, 5)), _state((0, 1, 50)),
                                self._doomed_with_open_ei())
        done.mark_captured(0)
        assert retire([carcass], 3) == ([carcass], [carcass])
        assert retire([done, open_, carcass], EPOCH_OVER) == ([], [open_])

    def test_complete_states_leave_and_zero_budget_plans_nothing(self):
        done, live = _state((0, 1, 5)), _state((1, 1, 5))
        done.mark_captured(0)
        active, doomed, candidates, decisions = plan_chronon(
            [done, live], SEDFPolicy(), 2, 0, True)
        assert (active, doomed, list(candidates), decisions) == \
            ([live], [], [], [])


class TestSettleChronon:
    def test_an_unanswered_selection_still_commits(self):
        a, b = _state((0, 1, 5)), _state((1, 1, 6))
        _active, _doomed, candidates, decisions = plan_chronon(
            [a, b], SEDFPolicy(), 1, 2, True)
        schedule = Schedule()
        captures = list(settle_chronon(decisions, {1}, candidates, 1,
                                       schedule))
        assert a.committed and not a.is_complete
        assert [(c.state, done) for c, done in captures] == [(b, True)]
        assert list(schedule.probes()) == [(1, 1)]

    def test_a_free_rider_capture_commits(self):
        selected, rider = _state((0, 1, 3)), _state((0, 1, 9), (1, 5, 9))
        candidates = [Candidate(selected, selected.eta[0]),
                      Candidate(rider, rider.eta[0])]
        decisions = select_probes(SEDFPolicy(), candidates, 2, 1, True)
        assert decisions[0].selected.state is selected
        captures = list(settle_chronon(decisions, {0}, candidates, 2,
                                       Schedule()))
        assert [(c.state, done) for c, done in captures] == \
            [(selected, True), (rider, False)]
        assert rider.committed and rider.captured == [True, False]

    def test_a_quota_state_completes_with_eis_left_uncaptured(self):
        eis = [ExecutionInterval(0, 1, 5), ExecutionInterval(1, 1, 5),
               ExecutionInterval(2, 1, 5)]
        state = TIntervalState(TInterval(eis, need=2), 3)
        active, _doomed, candidates, decisions = plan_chronon(
            [state], MRSFPolicy(), 1, 3, True)
        # Three EIs answered, quota two: completed on the second
        # capture and on no other.
        captures = list(settle_chronon(decisions, {0, 1, 2}, candidates,
                                       1, Schedule()))
        assert [done for _c, done in captures] == [False, True, False]
        lone = TIntervalState(TInterval(eis, need=1), 3)
        _active, _doomed, candidates, decisions = plan_chronon(
            [lone], MRSFPolicy(), 1, 1, True)
        assert [done for _c, done in settle_chronon(
            decisions, {decisions[0].resource_id}, candidates, 1,
            Schedule())] == [True]
        assert lone.is_complete and lone.captured_count == 1
        assert retire([lone], 2) == ([], [])
