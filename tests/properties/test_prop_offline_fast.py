"""The offline pipeline against its specification (``tests/offline/oracle.py``).

The indexed offline path (sweep-line adjacency, lazy-heap Local-Ratio
decomposition, accelerated matcher) must be *observationally identical*
to the pairwise/rescan/from-scratch definitions: the same conflict edges,
the same decomposition stack, the same accept/reject on every insertion
and so the same accepted t-interval set — on any instance.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector, ExecutionInterval, TInterval
from repro.core.completeness import tally
from repro.offline import (
    LocalRatioApproximation,
    ProbeAssigner,
    demand_map,
    fractional_guidance,
    overlap_adjacency,
    unit_conflict_adjacency,
)
from repro.offline.local_ratio import GUIDANCE_SCALE, decompose

from tests.offline import oracle
from tests.properties.strategies import epoch, profile_sets, tintervals

#: A budget with a burst at chronon 3 and a dead chronon 7.
BURSTY = BudgetVector(1, overrides={3: 2, 7: 0})


def _check_against_oracle(profiles, budget, uniform=False):
    """The solver accepts what the oracle pipeline accepts, and its
    decomposition stack is the oracle's under LP or uniform guidance."""
    is_unit = profiles.is_unit_width
    build = oracle.unit_conflicts if is_unit else oracle.overlaps
    etas, adjacency = build(profiles, budget)
    keys = sorted(etas)
    demands = ({key: demand_map(etas[key]) for key in keys}
               if is_unit else {})
    lp = fractional_guidance(keys, etas, epoch(), budget, is_unit, demands)
    guidance = {key: GUIDANCE_SCALE for key in keys} if uniform else lp
    assert decompose(keys, etas, adjacency, guidance) \
        == oracle.decompose(keys, etas, adjacency, guidance)

    result = LocalRatioApproximation().solve(profiles, epoch(), budget)
    accepted = set(oracle.unwind(
        oracle.decompose(keys, etas, adjacency, lp), etas, epoch(), budget))
    expected = tally(profiles, lambda eta: (
        eta.profile_id, eta.tinterval_id) in accepted)
    assert result.extras["accepted"] == len(accepted)
    assert result.report.captured == expected.captured
    assert result.report.per_profile == expected.per_profile
    assert result.report.per_rank == expected.per_rank
    assert result.schedule.respects_budget(budget, epoch())
    for key in accepted:
        assert result.schedule.captures_tinterval(etas[key])


class TestLocalRatioEngineEquivalence:
    @given(profiles=profile_sets(unit_width=True),
           budget=st.sampled_from([1, 3]),
           uniform=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_unit_width_instances(self, profiles, budget, uniform):
        _check_against_oracle(profiles, BudgetVector(budget), uniform)

    @given(profiles=profile_sets(),
           budget=st.sampled_from([1, 3]),
           uniform=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_general_instances(self, profiles, budget, uniform):
        _check_against_oracle(profiles, BudgetVector(budget), uniform)

    @given(profiles=profile_sets(unit_width=True))
    @settings(max_examples=15, deadline=None)
    def test_nonuniform_budget(self, profiles):
        _check_against_oracle(profiles, BURSTY)


class TestAdjacencyEquivalence:
    @given(profiles=profile_sets(unit_width=True),
           budget=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_unit_sweep_matches_pairwise(self, profiles, budget):
        budget_vector = BudgetVector(budget)
        assert unit_conflict_adjacency(profiles, budget_vector) \
            == oracle.unit_conflicts(profiles, budget_vector)

    @given(profiles=profile_sets())
    @settings(max_examples=40, deadline=None)
    def test_overlap_sweep_matches_pairwise(self, profiles):
        assert overlap_adjacency(profiles, BURSTY) \
            == oracle.overlaps(profiles, BURSTY)

    @given(profiles=profile_sets(), budget=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_overlap_sweep_budget_filter(self, profiles, budget):
        budget_vector = BudgetVector(budget)
        assert overlap_adjacency(profiles, budget_vector) \
            == oracle.overlaps(profiles, budget_vector)


def _replay_against_oracle(etas, budget):
    """Every insert is accepted exactly when the oracle finds the accepted
    set plus the newcomer schedulable; the schedule stays feasible and
    captures every accepted t-interval."""
    assigner = ProbeAssigner(epoch(), budget)
    accepted = []
    for eta in etas:
        expected = oracle.schedulable([*accepted, eta], epoch(), budget)
        assert assigner.try_add(eta) == expected
        if expected:
            accepted.append(eta)
    schedule = assigner.schedule()
    assert schedule.respects_budget(budget, epoch())
    for eta in accepted:
        assert schedule.captures_tinterval(eta)


#: A rejected insert that assigned two of its keys before its third
#: failed: unless the rollback also takes them out of the Hall
#: precheck's counts, the last (feasible) t-interval is refused.
PHANTOM_LOAD = [
    TInterval([ExecutionInterval(0, 12, 12)]),
    TInterval([ExecutionInterval(0, 1, 1), ExecutionInterval(0, 12, 13),
               ExecutionInterval(0, 13, 13)]),
    TInterval([ExecutionInterval(0, 1, 1)]),
]


class TestMatcherModeEquivalence:
    @given(etas=st.lists(tintervals(), min_size=1, max_size=10),
           budget=st.integers(1, 3))
    @example(etas=PHANTOM_LOAD, budget=1)
    @settings(max_examples=60, deadline=None)
    def test_fast_and_naive_agree_per_insert(self, etas, budget):
        _replay_against_oracle(etas, BudgetVector(budget))

    @given(etas=st.lists(tintervals(unit_width=True),
                         min_size=1, max_size=12),
           budget=st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_unit_shortcut_regime(self, etas, budget):
        _replay_against_oracle(etas, BudgetVector(budget))

    @given(etas=st.lists(tintervals(), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_rejections_leave_fast_state_consistent(self, etas):
        # Interleave accepts and rejects, then verify the final schedule
        # is feasible and captures exactly the accepted etas.
        budget_vector = BudgetVector(1)
        assigner = ProbeAssigner(epoch(), budget_vector)
        accepted = [eta for eta in etas if assigner.try_add(eta)]
        schedule = assigner.schedule()
        assert schedule.respects_budget(budget_vector, epoch())
        for eta in accepted:
            assert schedule.captures_tinterval(eta)
