"""A policy's score is one row: ``ScoreKey`` weights, read by
``Policy.score`` and handed to the columns by ``key_of``.

``ROWS`` (``tests/conformance/cases.py``) is the table of every
registered policy's row; the lowering's oracle builds its key columns
from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionInterval, TInterval
from repro.online import (
    Candidate,
    MRSFPolicy,
    Policy,
    ScoreKey,
    TIntervalState,
    available_policies,
    key_of,
    make_policy,
)
from repro.online.base import noise
from repro.online.registry import registered_keys

from tests.conformance.cases import ROWS, LoudMRSF



def _state() -> TIntervalState:
    """A rank-4 t-interval at chronon 10: EI 0 = r0[2,12] open, EI 1 =
    r1[5,9] captured, EI 2 = r2[8,15] open, EI 3 = r3[13,20] not yet."""
    state = TIntervalState(TInterval([
        ExecutionInterval(0, 2, 12), ExecutionInterval(1, 5, 9),
        ExecutionInterval(2, 8, 15), ExecutionInterval(3, 13, 20)]), 4)
    state.mark_captured(1)
    return state


class _Row(Policy):
    name = "row"


def test_the_registry_holds_one_row_per_policy():
    rows = {name: make_policy(name).key for name in available_policies()}
    assert rows == ROWS
    assert sorted(registered_keys(), key=repr) == \
        sorted(ROWS.values(), key=repr)


@pytest.mark.parametrize("feature, value", [
    ("finish", 12), ("start", 2), ("rank", 4), ("need", 4), ("captured", 1),
    # (12 - 10) + (15 - 10) + 20: the M-EDF sum, EI 1 captured.
    ("deadlines", 27), ("noise", int(noise(-1, -1, 0))), ("chronon", 10),
    ("const", 1)])
def test_score_weighs_each_feature(feature, value):
    policy = _Row()
    state = _state()
    for weight in (1, -3):
        policy.key = ScoreKey(**{feature: weight})
        assert policy.score(Candidate(state, state.eta[0]), 10) == \
            float(weight * value)


def test_pool_counts_the_observed_candidates_per_resource():
    policy = _Row()
    policy.key = ScoreKey(pool=-2, const=5)
    state = _state()
    on_0 = Candidate(state, state.eta[0])
    on_2 = Candidate(state, state.eta[2])
    # Before any chronon is observed a candidate counts itself.
    assert policy.score(on_0, 10) == 3.0
    policy.observe_candidates([on_0, on_2, on_2], 10)
    assert (policy.score(on_0, 10), policy.score(on_2, 10)) == (3.0, 1.0)


def test_a_row_without_pool_keeps_no_count():
    policy = MRSFPolicy()
    state = _state()
    policy.observe_candidates([Candidate(state, state.eta[0])], 10)
    assert "_pool" not in vars(policy)


def test_a_policy_with_neither_row_nor_score_says_so():
    state = _state()
    with pytest.raises(NotImplementedError, match="_Row has neither"):
        _Row().score(Candidate(state, state.eta[0]), 10)


def test_score_range_is_interval_arithmetic_over_the_named_features():
    row = ScoreKey(finish=2, captured=-1, chronon=-1, const=7)
    ranges = {"finish": (0, 10), "captured": (0, 3)}
    assert row.score_range(ranges) == (-3, 20)
    assert ScoreKey().score_range(ranges) == (0, 0)


class TestKeyOf:
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_a_registered_policy_runs_by_its_row(self, name):
        assert key_of(make_policy(name)) == ROWS[name]

    def test_a_subclass_overriding_nothing_keeps_the_row(self):
        class Mine(MRSFPolicy):
            name = "mine"

        assert key_of(Mine()) == ROWS["MRSF"]

    def test_a_subclass_overriding_score_has_none(self):
        class Mine(MRSFPolicy):
            def score(self, candidate, chronon):
                return -super().score(candidate, chronon)

        assert key_of(Mine()) is None

    def test_a_subclass_overriding_observe_candidates_has_none(self):
        class Mine(MRSFPolicy):
            def observe_candidates(self, candidates, chronon):
                pass

        assert key_of(Mine()) is None

    @pytest.mark.parametrize("policy", [LoudMRSF()], ids=["loud-mrsf"])
    def test_a_policy_scoring_by_its_own_method_has_none(self, policy):
        assert key_of(policy) is None


@pytest.mark.parametrize("name", available_policies())
def test_every_registered_policy_is_a_row(name):
    """No built-in policy leaves the columns for the reference."""
    assert key_of(make_policy(name)) is not None


#: Ids as the lowering holds them: int32, non-negative.
_IDS = st.integers(0, 2 ** 31 - 1)


class TestNoise:
    """RANDOM's feature: one draw per ``(profile_id, tinterval_id,
    ei_id)``, the same from columns (the lowering) and from ints (the
    object path and the event engine)."""

    @settings(max_examples=50, deadline=None)
    @given(ids=st.lists(st.tuples(_IDS, _IDS, _IDS), min_size=1,
                        max_size=40))
    def test_a_column_is_its_elements_one_at_a_time(self, ids):
        columns = [np.array(column, dtype=np.int32) for column in zip(*ids)]
        drawn = noise(*columns)
        assert drawn.dtype == np.int32 and drawn.shape == (len(ids),)
        assert drawn.tolist() == [int(noise(*triple)) for triple in ids]
        assert ((0 <= drawn) & (drawn < 2 ** 16)).all()

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_every_id_moves_the_draw(self, field):
        # A fold that dropped a field would leave the draw unchanged.
        rng = np.random.default_rng(field)
        ids = rng.integers(0, 2 ** 31 - 1, size=(3, 10_000), dtype=np.int64)
        moved = ids.copy()
        moved[field] = (moved[field] + rng.integers(1, 1000, size=10_000)
                        ) % (2 ** 31 - 1)
        changed = noise(*ids) != noise(*moved)
        assert changed.mean() >= 0.99
