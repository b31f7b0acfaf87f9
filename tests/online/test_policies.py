"""Tests for the paper's three policies: score formulas and semantics.

Every value goes through ``Policy.score``, which evaluates the policy's
score row. Includes a worked example in the spirit of the paper's
Figure 2 / Example 1: one candidate t-interval with four EIs evaluated at
a chronon T.
"""

import pytest

from repro.core import ExecutionInterval, TInterval
from repro.online import (
    Candidate,
    MEDFPolicy,
    MRSFPolicy,
    SEDFPolicy,
    TIntervalState,
)


def s_edf_value(ei: ExecutionInterval, chronon: int) -> float:
    state = TIntervalState(TInterval([ei]), 1)
    return SEDFPolicy().score(Candidate(state, state.eta[0]), chronon)


def m_edf_value(state: TIntervalState, chronon: int) -> float:
    return MEDFPolicy().score(Candidate(state, state.eta[0]), chronon)


class TestSEDFValues:
    def test_remaining_chronons(self):
        ei = ExecutionInterval(0, 2, 9)
        assert s_edf_value(ei, 4) == 5.0

    def test_at_deadline_zero(self):
        ei = ExecutionInterval(0, 2, 9)
        assert s_edf_value(ei, 9) == 0.0

    def test_inactive_uses_absolute_deadline(self):
        ei = ExecutionInterval(0, 5, 9)
        assert s_edf_value(ei, 0) == 9.0

    def test_policy_scores_candidate(self):
        eta = TInterval([ExecutionInterval(0, 1, 7)])
        state = TIntervalState(eta, 1)
        candidate = Candidate(state, eta[0])
        assert SEDFPolicy().score(candidate, 3) == 4.0


class TestMRSFValues:
    def test_formula(self):
        eta = TInterval([ExecutionInterval(0, 1, 5),
                         ExecutionInterval(1, 1, 5)])
        state = TIntervalState(eta, profile_rank=3)
        state.mark_captured(1)
        assert MRSFPolicy().score(Candidate(state, eta[0]), 1) == 2.0

    def test_policy_uses_profile_rank_not_size(self):
        # A 2-EI t-interval inside a rank-3 profile scores 3 - captured.
        eta = TInterval([ExecutionInterval(0, 1, 5),
                         ExecutionInterval(1, 1, 5)])
        state = TIntervalState(eta, profile_rank=3)
        candidate = Candidate(state, eta[0])
        assert MRSFPolicy().score(candidate, 1) == 3.0
        state.mark_captured(1)
        assert MRSFPolicy().score(candidate, 1) == 2.0

    def test_lower_residual_preferred(self):
        eta = TInterval([ExecutionInterval(0, 1, 5),
                         ExecutionInterval(1, 1, 5)])
        near = TIntervalState(eta, 2)
        near.mark_captured(1)
        far = TIntervalState(
            TInterval([ExecutionInterval(2, 1, 5),
                       ExecutionInterval(3, 1, 5)]), 2)
        policy = MRSFPolicy()
        assert (policy.score(Candidate(near, near.eta[0]), 1)
                < policy.score(Candidate(far, far.eta[0]), 1))


class TestMEDFValues:
    def test_sums_uncaptured_siblings(self):
        eta = TInterval([ExecutionInterval(0, 1, 6),
                         ExecutionInterval(1, 2, 9)])
        state = TIntervalState(eta, 2)
        # At T=3 both active: (6-3) + (9-3) = 9.
        assert m_edf_value(state, 3) == 9.0

    def test_captured_siblings_excluded(self):
        eta = TInterval([ExecutionInterval(0, 1, 6),
                         ExecutionInterval(1, 2, 9)])
        state = TIntervalState(eta, 2)
        state.mark_captured(0)
        assert m_edf_value(state, 3) == 6.0

    def test_inactive_sibling_counted_at_time_zero(self):
        eta = TInterval([ExecutionInterval(0, 1, 6),
                         ExecutionInterval(1, 10, 14)])
        state = TIntervalState(eta, 2)
        # At T=3: active EI contributes 6-3=3; inactive contributes its
        # absolute deadline 14 (EDF evaluated at T=0, per the paper).
        assert m_edf_value(state, 3) == 17.0

    def test_policy_scores_via_state(self):
        eta = TInterval([ExecutionInterval(0, 1, 6)])
        state = TIntervalState(eta, 1)
        assert MEDFPolicy().score(Candidate(state, eta[0]), 2) == 4.0


class TestExample1WorkedExample:
    """A Figure-2-style example: a 4-EI t-interval evaluated at T = 10.

    EIs: A = r0[2,12] (active), B = r1[5,9] (already captured),
    C = r2[8,15] (active), D = r3[13,20] (not yet active).
    Profile rank = 4.
    """

    @pytest.fixture
    def state(self) -> TIntervalState:
        eta = TInterval([
            ExecutionInterval(0, 2, 12),
            ExecutionInterval(1, 5, 9),
            ExecutionInterval(2, 8, 15),
            ExecutionInterval(3, 13, 20),
        ])
        state = TIntervalState(eta, profile_rank=4)
        state.mark_captured(1)  # B was captured earlier
        return state

    def test_s_edf_per_ei(self, state):
        chronon = 10
        values = [SEDFPolicy().score(Candidate(state, ei), chronon)
                  for ei in state.eta]
        assert values == [2.0, -1.0, 5.0, 10.0]

    def test_mrsf(self, state):
        candidate = Candidate(state, state.eta[0])
        assert MRSFPolicy().score(candidate, 10) == 4 - 1 == 3

    def test_m_edf(self, state):
        # Uncaptured: A (2 left), C (5 left), D inactive -> absolute 20.
        assert m_edf_value(state, 10) == 2 + 5 + 20

    def test_policy_metadata(self):
        assert SEDFPolicy().level == "ei"
        assert MRSFPolicy().level == "rank"
        assert MEDFPolicy().level == "multi-ei"

    def test_labels(self):
        assert SEDFPolicy().label(True) == "S-EDF(P)"
        assert MRSFPolicy().label(False) == "MRSF(NP)"
