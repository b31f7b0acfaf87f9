"""Equivalence property: the columnar batch engine IS the reference.

:func:`~repro.simulation.batch.run_block` advances every lane of a
(policy x budget x instance) block in one vectorized pass; it exists
purely as a throughput optimization, so probe for probe each lane must
reproduce exactly what the reference simulator produces for the
same (instance, policy, budget) — schedule, completeness accounting and
counters. These properties drive single-lane blocks, full diverging
line-ups and multi-instance mega blocks over random profile sets, plus
the ``run_online(engine="batch")`` entry point (including its fall-back
for policies without a columnar kind).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector
from repro.online.registry import parse_policy_spec
from repro.simulation import run_block, run_online

from tests.properties.strategies import epoch, profile_sets

#: Every policy family with a columnar scoring kind (all of the paper's
#: line-up except RANDOM, which is inherently per-run stateful).
BATCH_SPECS = [
    "S-EDF(P)", "S-EDF(NP)",
    "M-EDF(P)", "M-EDF(NP)",
    "MRSF(P)", "ANTI-MRSF(P)",
    "FCFS(P)", "LFF(NP)",
    "STATICRANK(P)", "COVERAGE(P)",
]


@st.composite
def budget_vectors(draw) -> BudgetVector:
    default = draw(st.integers(1, 3))
    overrides = draw(st.dictionaries(
        st.integers(1, 12), st.integers(0, 4), max_size=2))
    return BudgetVector(default, overrides or None)


def _fast(profiles, spec, budget):
    policy, preemptive = parse_policy_spec(spec)
    return run_online(profiles, epoch(), budget, policy,
                      preemptive=preemptive, engine="reference")


def _assert_same_run(fast, batch):
    assert list(batch.schedule.probes()) == list(fast.schedule.probes())
    assert batch.label == fast.label
    assert batch.report == fast.report
    assert batch.probes_used == fast.probes_used
    assert batch.expired == fast.expired


class TestBatchEquivalence:
    @given(profiles=profile_sets(max_profiles=4),
           spec_index=st.integers(0, len(BATCH_SPECS) - 1),
           budget=budget_vectors())
    @settings(max_examples=100, deadline=None)
    def test_single_lane_block(self, profiles, spec_index, budget):
        spec = BATCH_SPECS[spec_index]
        policy, preemptive = parse_policy_spec(spec)
        batch, = run_block(profiles, epoch(),
                           [(policy, preemptive, budget)])
        _assert_same_run(_fast(profiles, spec, budget), batch)

    @given(profiles=profile_sets(max_profiles=4),
           budget=budget_vectors())
    @settings(max_examples=40, deadline=None)
    def test_full_lineup_block(self, profiles, budget):
        """All ten policies as lanes of ONE block, vs. one-at-a-time."""
        lanes = []
        for spec in BATCH_SPECS:
            policy, preemptive = parse_policy_spec(spec)
            lanes.append((policy, preemptive, budget))
        results = run_block(profiles, epoch(), lanes)
        for spec, batch in zip(BATCH_SPECS, results):
            _assert_same_run(_fast(profiles, spec, budget), batch)

    @given(profiles=profile_sets(max_profiles=3),
           spec_index=st.integers(0, len(BATCH_SPECS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_diverging_budget_lanes(self, profiles, spec_index):
        """Same policy under different budgets diverges lane from lane —
        each must still match its own fast run."""
        spec = BATCH_SPECS[spec_index]
        policy, preemptive = parse_policy_spec(spec)
        budgets = [BudgetVector(k) for k in (1, 2, 3)]
        results = run_block(
            profiles, epoch(),
            [(policy, preemptive, b) for b in budgets])
        for budget, batch in zip(budgets, results):
            _assert_same_run(_fast(profiles, spec, budget), batch)

    @given(profiles=profile_sets(max_profiles=4),
           spec_index=st.integers(0, len(BATCH_SPECS) - 1),
           budget=budget_vectors())
    @settings(max_examples=60, deadline=None)
    def test_run_online_engine_batch(self, profiles, spec_index, budget):
        spec = BATCH_SPECS[spec_index]
        policy, preemptive = parse_policy_spec(spec)
        batch = run_online(profiles, epoch(), budget, policy,
                           preemptive=preemptive, engine="batch")
        _assert_same_run(_fast(profiles, spec, budget), batch)

    @given(profiles=profile_sets(max_profiles=3),
           budget=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_run_online_batch_falls_back_for_random(self, profiles,
                                                    budget):
        """RANDOM has no columnar kind; engine="batch" runs the
        reference and still produces the seeded-identical run."""
        policy, preemptive = parse_policy_spec("RANDOM(NP)")
        batch = run_online(profiles, epoch(), BudgetVector(budget),
                           policy, preemptive=preemptive, engine="batch")
        policy, preemptive = parse_policy_spec("RANDOM(NP)")
        fast = run_online(profiles, epoch(), BudgetVector(budget),
                          policy, preemptive=preemptive, engine="reference")
        _assert_same_run(fast, batch)
