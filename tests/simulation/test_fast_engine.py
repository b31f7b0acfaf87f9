"""Unit tests for the event-indexed fast engine.

Leaves with ``src/repro/simulation/engine.py``: nothing under
``src/repro`` imports that module any more, so these tests build
:class:`FastProxySimulator` themselves.

The broad probe-for-probe equivalence with the reference engine is the
``event`` line of the conformance matrix (``tests/conformance``); these
tests pin down the targeted behaviours — engine dispatch, t-intervals
that need fewer than all their EIs, per-policy fast paths, and edge
cases around the event queues.
"""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.faults import FaultSpec, RetryConfig
from repro.online import (
    CoveragePolicy,
    FCFSPolicy,
    MEDFPolicy,
    MRSFPolicy,
    SEDFPolicy,
    make_policy,
)
from repro.simulation import (
    ChurnEvent,
    ChurnPlan,
    run_churned,
    run_online,
)
from repro.simulation.engine import FastProxySimulator

from tests.conformance.cases import Case
from tests.conformance.engines import check


def _profiles(*etas: list[tuple[int, int, int]]) -> ProfileSet:
    return ProfileSet([Profile([
        TInterval([ExecutionInterval(r, s, f) for r, s, f in spec])
        for spec in etas
    ])])


class TestEngineDispatch:
    def test_default_engine_is_fast(self):
        profiles = _profiles([(0, 2, 5)])
        result = run_online(profiles, Epoch(10), BudgetVector(1),
                            SEDFPolicy())
        assert result.gc == 1.0

    def test_reference_engine_selectable(self):
        profiles = _profiles([(0, 2, 5)])
        fast = FastProxySimulator(profiles, Epoch(10), BudgetVector(1),
                                  SEDFPolicy()).run()
        reference = run_online(profiles, Epoch(10), BudgetVector(1),
                               SEDFPolicy(), engine="reference")
        assert list(fast.schedule.probes()) == \
            list(reference.schedule.probes())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_online(_profiles([(0, 2, 5)]), Epoch(10), BudgetVector(1),
                       SEDFPolicy(), engine="turbo")


class TestFastEngineBehaviour:
    def test_single_tinterval_captured(self):
        result = FastProxySimulator(
            _profiles([(0, 2, 5)]), Epoch(10), BudgetVector(1),
            SEDFPolicy()).run()
        assert result.gc == 1.0
        assert result.probes_used == 1
        assert result.expired == 0

    def test_empty_profiles(self):
        result = FastProxySimulator(
            ProfileSet(), Epoch(5), BudgetVector(1), SEDFPolicy()).run()
        assert result.gc == 1.0
        assert result.probes_used == 0

    def test_zero_budget_expires_everything(self):
        result = FastProxySimulator(
            _profiles([(0, 2, 5)]), Epoch(10), BudgetVector(0),
            SEDFPolicy()).run()
        assert result.gc == 0.0
        assert result.expired == 1

    def test_ei_entirely_after_epoch_never_indexed(self):
        # Second EI lies beyond the epoch: it can never be probed, so
        # the t-interval expires without tripping the event queues.
        profiles = _profiles([(0, 2, 4), (1, 12, 14)])
        fast = FastProxySimulator(profiles, Epoch(10), BudgetVector(1),
                                  SEDFPolicy()).run()
        reference = run_online(profiles, Epoch(10), BudgetVector(1),
                               SEDFPolicy(), engine="reference")
        assert fast.report == reference.report
        assert list(fast.schedule.probes()) == \
            list(reference.schedule.probes())
        assert fast.gc == 0.0

    @pytest.mark.parametrize("policy_cls", [
        SEDFPolicy, MEDFPolicy, MRSFPolicy, FCFSPolicy, CoveragePolicy])
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_policies_match_reference_on_overlap(self, policy_cls,
                                                 preemptive):
        profiles = _profiles(
            [(0, 2, 5), (1, 4, 8)],
            [(1, 3, 6)],
            [(2, 1, 3), (0, 6, 9), (1, 7, 9)],
        )
        mode = "P" if preemptive else "NP"
        check(Case(profiles, Epoch(12), f"{policy_cls.name}({mode})",
                   BudgetVector(1)), ["event"])

    def test_quota_state_factory_matches_reference(self):
        # A t-interval that needs one of its three EIs exercises the
        # ``need`` term of the cached keys and the completion hook that
        # retires its remaining index entries.
        profiles = ProfileSet([Profile([
            TInterval([ExecutionInterval(0, 1, 4), ExecutionInterval(1, 2, 6),
                       ExecutionInterval(2, 5, 9)], need=1),
            TInterval([ExecutionInterval(0, 3, 7),
                       ExecutionInterval(2, 4, 8)])])])
        reference = run_online(profiles, Epoch(12), BudgetVector(1),
                               make_policy("Q-MRSF"), engine="reference")
        fast = FastProxySimulator(profiles, Epoch(12), BudgetVector(1),
                                  make_policy("Q-MRSF")).run()
        assert list(fast.schedule.probes()) == \
            list(reference.schedule.probes())
        assert fast.report == reference.report
        assert reference.report.captured == 2

    def test_fault_counters_match_reference(self):
        profiles = _profiles(
            [(0, 1, 5), (1, 3, 8)],
            [(1, 2, 6), (0, 5, 9)],
        )
        case = Case(profiles, Epoch(12), "MRSF(P)", BudgetVector(2), "spec",
                    FaultSpec(failure_probability=0.5, seed=7),
                    RetryConfig(1))
        assert check(case, ["event"])["probes_failed"] > 0


# ----------------------------------------------------------------------
# Live registration: add_profile's one pass over a t-interval's EIs
# ----------------------------------------------------------------------

def _profile(*etas: list[tuple[int, int, int]]) -> Profile:
    return Profile([
        TInterval([ExecutionInterval(r, s, f) for r, s, f in spec])
        for spec in etas
    ])


def _engine_at(clock: int, policy, initial: ProfileSet | None = None,
               **kwargs) -> FastProxySimulator:
    """An engine over ``Epoch(12)`` advanced to ``clock``."""
    sim = FastProxySimulator(initial or ProfileSet(), Epoch(12),
                             BudgetVector(1), policy, **kwargs)
    sim.begin()
    for chronon in range(1, clock + 1):
        sim.advance(chronon)
    return sim


def _queued(events: dict) -> int:
    return sum(len(bucket) for bucket in events.values())


def _live_structures(sim: FastProxySimulator):
    """Index keys plus the future events that can still matter.

    The incremental queues may keep events of states that have since
    completed, been doomed (under a doom-seeing policy) or been
    removed — ``advance`` skips them — while ``rebuild_structures``
    never queues them; everything else must agree.
    """
    def live(events):
        future = {
            chronon: sorted((fs.seq, ei.ei_id) for fs, ei in bucket
                            if not (fs.removed or fs.state.is_complete
                                    or (sim._sees_doom and fs.doomed)
                                    or fs.state.captured[ei.ei_id]))
            for chronon, bucket in events.items() if chronon > sim.clock
        }
        return {chronon: keys for chronon, keys in future.items() if keys}
    index = {rid: sorted(entries) for rid, entries in sim._index.items()}
    return index, live(sim._start_events), live(sim._expiry_events)


# First window [1, 3] closes before a registration at clock 5; the
# sibling window [7, 9] is still ahead.
_LATE = _profile([(0, 1, 3), (1, 7, 9)])
_INITIAL = ProfileSet([_profile([(2, 2, 8)], [(1, 6, 9), (3, 10, 11)])])


class TestLiveRegistration:
    def test_empty_profile_still_rejected(self):
        # The event engine keeps the refusal the proxies dropped (they
        # give an empty profile the next id).
        sim = _engine_at(2, MRSFPolicy())
        with pytest.raises(ModelError,
                           match="cannot register an empty profile"):
            sim.add_profile(Profile([]))
        # The rejected profile consumed no id.
        assert sim.add_profile(_profile([(0, 5, 6)])) == 0

    @pytest.mark.parametrize("policy_cls", [MRSFPolicy, MEDFPolicy])
    def test_doomed_at_birth_queues_nothing_when_doom_is_seen(
            self, policy_cls):
        sim = _engine_at(5, policy_cls(), _INITIAL)
        before = (_queued(sim._start_events), _queued(sim._expiry_events))
        profile_id = sim.add_profile(_LATE)
        (fs,) = sim._states_by_profile[profile_id]
        assert fs.doomed and fs.arrival == 6
        assert fs.medf_sum == 3 + 9
        assert (_queued(sim._start_events),
                _queued(sim._expiry_events)) == before
        for chronon in range(6, 13):
            sim.advance(chronon)
        result = sim.finish()
        assert result.extras["doomed_at_birth"] == 1.0
        assert result.report.per_profile[profile_id] == (0, 1)
        assert result.expired >= 1

    def test_doomed_at_birth_still_queues_for_ei_level_policy(self):
        # S-EDF does not look at siblings: the open window of a doomed
        # t-interval is probed like any other, so its events are needed
        # — but never the closed window's.
        sim = _engine_at(5, SEDFPolicy(), _INITIAL)
        profile_id = sim.add_profile(_LATE)
        (fs,) = sim._states_by_profile[profile_id]
        assert fs.doomed
        assert [(c, ei.ei_id) for c, bucket in sim._start_events.items()
                for state, ei in bucket if state is fs] == [(7, 1)]
        assert [(c, ei.ei_id) for c, bucket in sim._expiry_events.items()
                for state, ei in bucket if state is fs] == [(10, 1)]

    def test_open_window_on_arrival_fires_at_arrival(self):
        sim = _engine_at(5, MRSFPolicy())
        profile_id = sim.add_profile(_profile([(0, 2, 8), (1, 9, 30)]))
        (fs,) = sim._states_by_profile[profile_id]
        assert not fs.doomed and fs.arrival == 6
        # [2, 8] is open on arrival -> chronon 6; [9, 30] opens at 9
        # and outlives the epoch -> no expiry event.
        assert sorted((c, ei.ei_id)
                      for c, bucket in sim._start_events.items()
                      for state, ei in bucket if state is fs) \
            == [(6, 0), (9, 1)]
        assert [(c, ei.ei_id) for c, bucket in sim._expiry_events.items()
                for state, ei in bucket if state is fs] == [(9, 0)]

    @pytest.mark.parametrize("policy_cls",
                             [MRSFPolicy, MEDFPolicy, SEDFPolicy])
    def test_spliced_structures_match_rebuild(self, policy_cls):
        sim = _engine_at(5, policy_cls(), _INITIAL)
        sim.add_profile(_LATE)
        sim.add_profile(_profile([(2, 4, 7), (3, 8, 8)], [(0, 6, 6)]))
        sim.remove_profile(0)
        spliced = _live_structures(sim)
        sim.rebuild_structures()
        assert _live_structures(sim) == spliced
        # A doomed state contributes nothing to a doom-seeing rebuild.
        doomed = [fs for fs in sim._all_states if fs.doomed]
        assert doomed
        queued = [fs for events in (sim._start_events, sim._expiry_events)
                  for bucket in events.values() for fs, _ei in bucket]
        if sim._sees_doom:
            assert not any(fs.doomed for fs in queued)
        else:
            assert any(fs.doomed for fs in queued)

    @pytest.mark.parametrize("policy_cls",
                             [MRSFPolicy, MEDFPolicy, SEDFPolicy])
    def test_late_registration_matches_rebuild_and_proxy(self,
                                                         policy_cls):
        adds = [(5, _LATE),
                (5, _profile([(2, 4, 7), (3, 8, 8)], [(0, 6, 6)])),
                (8, _profile([(0, 2, 4)], [(3, 9, 12)]))]
        plan = ChurnPlan([ChurnEvent.add(clock, profile)
                          for clock, profile in adds])
        check(Case(_INITIAL, Epoch(12), f"{policy_cls.name}(P)",
                   BudgetVector(1), plan=plan), ["churned", "event"])
        incremental = run_churned(_INITIAL, Epoch(12), BudgetVector(1),
                                  policy_cls(), plan=plan)
        assert incremental.extras["doomed_at_birth"] == 2.0

    def test_quota_states_decide_doom_for_closed_windows(self):
        # One window of each t-interval closed before registration.
        # With quota 1 the t-interval is still reachable (not doomed,
        # its open windows are queued and one capture completes it);
        # with every EI required it is doomed at birth.
        late = Profile([
            TInterval([ExecutionInterval(0, 1, 3), ExecutionInterval(1, 7, 9),
                       ExecutionInterval(2, 8, 10)], need=1),
            TInterval([ExecutionInterval(0, 2, 4),
                       ExecutionInterval(3, 7, 8)])])
        sim = _engine_at(5, make_policy("Q-MRSF"))
        profile_id = sim.add_profile(late)
        reachable, doomed = sim._states_by_profile[profile_id]
        assert not reachable.doomed and doomed.doomed
        assert sorted((c, ei.ei_id)
                      for c, bucket in sim._start_events.items()
                      for fs, ei in bucket) == [(7, 1), (8, 2)]

        plan = ChurnPlan([ChurnEvent.add(5, late)])
        incremental, rebuild = (
            FastProxySimulator(
                ProfileSet(), Epoch(12), BudgetVector(1),
                make_policy("Q-MRSF")).run(
                    churn=plan, churn_rebuild=rebuild)
            for rebuild in (False, True))
        assert list(incremental.schedule.probes()) == \
            list(rebuild.schedule.probes()) == [(1, 7)]
        assert incremental.report == rebuild.report
        assert incremental.report.per_profile[0] == (1, 2)
        assert incremental.extras == rebuild.extras
        assert incremental.extras["doomed_at_birth"] == 1.0
