"""Churn equivalence: incremental insert/delete IS the full rebuild.

The engine half leaves with ``src/repro/simulation/engine.py``: nothing
under ``src/repro`` imports that module any more, so this suite builds
:class:`FastProxySimulator` (spliced and rebuilding) itself.

The fast churn paths exist purely as optimizations — for
every interleaving of mid-epoch registrations and cancellations they
must be observationally identical to tearing the derived structures
down and rebuilding them from scratch:

* ``run_churned`` (the plan lowered to lifetimes and run as one lane
  of the block kernel; it refuses RANDOM, whose incremental leg is the
  event engine's) and ``FastProxySimulator.run(churn=plan)`` (event
  splicing into the live per-chronon queues + dirty-set index patching,
  property-tested for as long as it exists) must both produce the
  same run as ``run(churn=plan, churn_rebuild=True)`` (a full
  :meth:`~repro.simulation.engine.FastProxySimulator.rebuild_structures`
  pass after every event) — probe for probe, counter for counter;
* :class:`~repro.offline.incremental.IncrementalLocalRatio` must keep
  an adjacency identical (modulo the dense relabel
  :class:`~repro.core.profile.ProfileSet` applies) to a from-scratch
  :func:`~repro.offline.conflict.unit_conflict_adjacency` over the live
  set, and :meth:`resolve` must match a from-scratch
  :class:`~repro.offline.local_ratio.LocalRatioApproximation` solve.

These properties are what make the speedups in ``BENCH_churn.json``
meaningful.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector, ProfileSet
from repro.faults import RetryConfig
from repro.offline import (
    IncrementalLocalRatio,
    LocalRatioApproximation,
    unit_conflict_adjacency,
)
from repro.online import key_of
from repro.online.registry import parse_policy_spec
from repro.simulation import ChurnEvent, ChurnPlan, run_churned
from repro.simulation.engine import FastProxySimulator

from tests.properties.strategies import (
    HORIZON,
    epoch,
    fault_specs,
    profile_sets,
    profiles,
)

POLICY_SPECS = [
    "S-EDF(P)", "M-EDF(P)", "M-EDF(NP)", "MRSF(P)",
    "FCFS(NP)", "COVERAGE(P)", "RANDOM(NP)",
]


@st.composite
def churn_scenarios(draw, max_initial: int = 3, max_adds: int = 3):
    """An initial set plus a valid add/remove plan.

    Adds are placed in the plan in chronon order, so the engine assigns
    ids ``len(initial) + index`` in plan order; removals only name ids
    that exist by their chronon (initial ids from chronon 0, added ids
    from their add chronon — same-chronon remove-after-add is legal and
    exercised because grouped events apply in plan order).
    """
    initial = draw(profile_sets(max_profiles=max_initial))
    adds = sorted(draw(st.lists(st.integers(0, HORIZON), min_size=0,
                                max_size=max_adds)))
    added = [draw(profiles(max_tintervals=2)) for _ in adds]
    events = [ChurnEvent.add(chronon, profile)
              for chronon, profile in zip(adds, added)]
    available = (
        [(profile_id, 0) for profile_id in range(len(initial))]
        + [(len(initial) + index, chronon)
           for index, chronon in enumerate(adds)])
    removable = draw(st.lists(
        st.integers(0, len(available) - 1), unique=True, max_size=3))
    for slot in removable:
        profile_id, born = available[slot]
        events.append(ChurnEvent.remove(
            draw(st.integers(born, HORIZON)), profile_id))
    return initial, ChurnPlan(events)


def _run_both(initial, plan, spec, budget, faults=None, retry=None):
    policy, preemptive = parse_policy_spec(spec)
    if key_of(policy) is None:
        incremental = _run_spliced(initial, plan, spec, budget, faults,
                                   retry)
    else:
        incremental = run_churned(
            initial, epoch(), BudgetVector(budget), policy, plan=plan,
            preemptive=preemptive, faults=faults, retry=retry)
    return incremental, _run_spliced(initial, plan, spec, budget, faults,
                                     retry, rebuild=True)


def _run_spliced(initial, plan, spec, budget, faults=None, retry=None,
                 rebuild=False):
    policy, preemptive = parse_policy_spec(spec)
    return FastProxySimulator(
        initial, epoch(), BudgetVector(budget), policy,
        preemptive=preemptive, faults=faults,
        retry=retry).run(churn=plan, churn_rebuild=rebuild)


def _assert_same_run(incremental, rebuild):
    assert list(incremental.schedule.probes()) == \
        list(rebuild.schedule.probes())
    assert incremental.report == rebuild.report
    assert incremental.probes_used == rebuild.probes_used
    assert incremental.expired == rebuild.expired
    assert incremental.probes_failed == rebuild.probes_failed
    assert incremental.retries == rebuild.retries
    assert incremental.resources_quarantined == \
        rebuild.resources_quarantined
    assert incremental.extras == rebuild.extras


class TestEngineChurnEquivalence:
    @given(scenario=churn_scenarios(),
           spec_index=st.integers(0, len(POLICY_SPECS) - 1),
           budget=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_incremental_matches_rebuild(self, scenario, spec_index,
                                         budget):
        initial, plan = scenario
        incremental, rebuild = _run_both(
            initial, plan, POLICY_SPECS[spec_index], budget)
        _assert_same_run(incremental, rebuild)
        _assert_same_run(_run_spliced(
            initial, plan, POLICY_SPECS[spec_index], budget), rebuild)

    @given(scenario=churn_scenarios(max_initial=2, max_adds=2),
           spec_index=st.integers(0, len(POLICY_SPECS) - 1),
           budget=st.integers(1, 2), faults=fault_specs(),
           use_retry=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_faulty_churn_matches_rebuild(self, scenario, spec_index,
                                          budget, faults, use_retry):
        initial, plan = scenario
        incremental, rebuild = _run_both(
            initial, plan, POLICY_SPECS[spec_index], budget,
            faults=faults, retry=RetryConfig(1) if use_retry else None)
        _assert_same_run(incremental, rebuild)
        _assert_same_run(_run_spliced(
            initial, plan, POLICY_SPECS[spec_index], budget, faults=faults,
            retry=RetryConfig(1) if use_retry else None), rebuild)

    @given(scenario=churn_scenarios(max_initial=2, max_adds=3),
           budget=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_churned_accounting_balances(self, scenario, budget):
        initial, plan = scenario
        incremental, _ = _run_both(initial, plan, "M-EDF(P)", budget)
        report = incremental.report
        captured = sum(c for c, _t in report.per_profile.values())
        assert captured == report.captured
        if any(event.action in ("add", "remove") for event in plan):
            assert "added_profiles" in incremental.extras \
                or not any(e.action == "add" for e in plan)


@st.composite
def offline_churn_scripts(draw, max_profiles: int = 4):
    """A unit-width profile pool plus an add/remove interleaving."""
    pool = [draw(profiles(max_tintervals=2, unit_width=True))
            for _ in range(draw(st.integers(1, max_profiles)))]
    removals = draw(st.lists(
        st.integers(0, len(pool) - 1), unique=True,
        max_size=len(pool) - 1))
    return pool, removals


def _dense_relabel(live_ids):
    """live id -> the dense id ProfileSet assigns (ascending order)."""
    return {profile_id: index
            for index, profile_id in enumerate(sorted(live_ids))}


class TestOfflineChurnEquivalence:
    @given(script=offline_churn_scripts(), budget=st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_from_scratch(self, script, budget):
        pool, removals = script
        budget_vector = BudgetVector(budget)
        inc = IncrementalLocalRatio(epoch(), budget_vector)
        live = {}
        steps = [("add", profile) for profile in pool] + \
            [("remove", profile_id) for profile_id in removals]
        for action, payload in steps:
            if action == "add":
                profile_id = inc.add_profile(payload)
                live[profile_id] = payload
            else:
                inc.remove_profile(payload)
                del live[payload]
            if not live:
                assert len(inc) == 0
                continue
            relabel = _dense_relabel(live)
            snapshot = ProfileSet(
                [live[key] for key in sorted(live)])
            _etas, expected = unit_conflict_adjacency(
                snapshot, budget_vector)
            got_edges = {
                frozenset(((relabel[lp], lt), (relabel[rp], rt)))
                for (lp, lt), neighbors in inc.adjacency.items()
                for (rp, rt) in neighbors}
            expected_edges = {
                frozenset((left, right))
                for left, neighbors in expected.items()
                for right in neighbors}
            got_nodes = {(relabel[p], t) for p, t in inc.adjacency}
            assert got_nodes == set(expected)
            assert got_edges == expected_edges

    @given(script=offline_churn_scripts(), budget=st.integers(1, 2),
           use_lp=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_resolve_matches_from_scratch_solve(self, script, budget,
                                                use_lp):
        pool, removals = script
        budget_vector = BudgetVector(budget)
        inc = IncrementalLocalRatio(epoch(), budget_vector,
                                    use_lp=use_lp)
        live = {}
        for profile in pool:
            live[inc.add_profile(profile)] = profile
        for profile_id in removals:
            inc.remove_profile(profile_id)
            del live[profile_id]
        result = inc.resolve()
        snapshot = ProfileSet([live[key] for key in sorted(live)])
        fresh = LocalRatioApproximation(
            use_lp=use_lp, engine="fast").solve(
            snapshot, epoch(), budget_vector)
        assert list(result.schedule.probes()) == \
            list(fresh.schedule.probes())
        assert result.report.captured == fresh.report.captured
        assert result.report.total == fresh.report.total
        assert result.report.per_rank == fresh.report.per_rank
        assert sorted(result.report.per_profile.values()) == \
            sorted(fresh.report.per_profile.values())
        assert result.extras["accepted"] == fresh.extras["accepted"]
        assert result.extras["gc_with_free_riders"] == \
            fresh.extras["gc_with_free_riders"]
        # The diff-maintained live assigner converges to the same
        # probe multiset as the freshly unwound schedule.
        assert sorted(inc.live_schedule().probes()) == \
            sorted(result.schedule.probes())

    @given(script=offline_churn_scripts(max_profiles=3),
           budget=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_resolves_stay_consistent(self, script, budget):
        # resolve() mid-churn must not corrupt later incremental state.
        pool, removals = script
        budget_vector = BudgetVector(budget)
        inc = IncrementalLocalRatio(epoch(), budget_vector)
        live = {}
        for profile in pool:
            live[inc.add_profile(profile)] = profile
            inc.resolve()
        for profile_id in removals:
            inc.remove_profile(profile_id)
            del live[profile_id]
            inc.resolve()
        final = inc.resolve()
        snapshot = ProfileSet([live[key] for key in sorted(live)])
        fresh = LocalRatioApproximation(engine="fast").solve(
            snapshot, epoch(), budget_vector)
        assert list(final.schedule.probes()) == \
            list(fresh.schedule.probes())
        assert final.report.captured == fresh.report.captured
        inc.close()
        assert len(inc) == 0
        assert inc.live_profile_ids == []
