"""Churn equivalence: incremental insert/delete IS the full rebuild.

For the online engines this is a line of the conformance matrix:
``run_churned`` (the plan lowered to lifetimes), ``federated_run`` over
that lowering and the event engine's splicing and rebuilding runs must
each be the live proxy's run (``tests/conformance``); the names below
keep pointing at its pinned churn scenario.

For the offline solver,
:class:`~repro.offline.incremental.IncrementalLocalRatio` must keep an
adjacency identical (modulo the dense relabel
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
from repro.offline import (
    IncrementalLocalRatio,
    LocalRatioApproximation,
    unit_conflict_adjacency,
)

from tests.conformance.engines import check_pinned
from tests.properties.strategies import epoch, profiles


class TestEngineChurnEquivalence:
    def test_incremental_matches_rebuild(self):
        check_pinned("29/reliable/", ["churned", "event"])

    def test_faulty_churn_matches_rebuild(self):
        check_pinned("29/faulty/", ["churned", "event"])

    def test_churned_accounting_balances(self):
        check_pinned("29/reliable/M", ["churned"])


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
