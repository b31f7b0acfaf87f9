"""Churn as lifetimes: a plan lowered to columns, against object walks.

:func:`~repro.simulation.churn.lower_plan` turns (initial set, plan)
into a union profile set and two per-t-interval vectors, and
:func:`~repro.simulation.churn.run_churned` runs one lane of the block
kernel over the lowering they give. Nothing here trusts the formulas:

* the lowering is compared with a plain Python walk that applies the
  plan event by event and the fast engine's ``_queue_events`` rule EI by
  EI (nothing for an EI closed before its t-interval arrived, otherwise
  a candidate from ``max(start, arrival)``, cut at the cancel clock),
  and with ``test_columnar``'s per-object oracle wherever the windows
  are cut;
* the runs are compared with the live ``MonitoringProxy`` registering
  and cancelling as the plan says — the churn referee, faults included.
"""

import logging
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BudgetVector,
    Epoch,
    ModelError,
    Profile,
    ProfileSet,
)
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.extensions import QuotaTIntervalState
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RecordedFaults,
    RetryConfig,
    UnreliableServer,
)
from repro.online.registry import parse_policy_spec
from repro.runtime import MonitoringProxy, OriginServer
from repro.simulation import (
    ChurnEvent,
    ChurnPlan,
    run_churned,
)
from repro.simulation import columnar as columnar_module
from repro.simulation.batch import BatchUnsupported, run_block
from repro.simulation.churn import lower_plan
from repro.simulation.columnar import ActivityWindow, ColumnarInstance
from repro.simulation.shard import federated_run
from repro.traces import UpdateTrace

from tests.properties.strategies import (
    HORIZON,
    epoch,
    profile_sets,
    profiles,
)
from tests.properties.test_prop_batch_faults import (
    _assert_same_faulty_run,
    _breaker_state,
)
from tests.simulation.test_columnar import _eta, assert_same_lowering
from tests.simulation.test_lowering_windows import POLICIES, _array_bytes


# ----------------------------------------------------------------------
# The object walk
# ----------------------------------------------------------------------

def walk(initial, plan, last: int) -> SimpleNamespace:
    """Apply ``plan`` event by event, as the engines do between
    chronons, and say per EI at which chronons it is a candidate."""
    w = SimpleNamespace(fired=0, doomed_at_birth=0)
    members = [(profile, 0) for profile in initial]
    cancelled: dict[int, int] = {}
    for clock in range(0, last + 1):
        for event in plan:
            if event.chronon != clock:
                continue
            w.fired += 1
            if event.action == "add":
                members.append((event.profile, clock + 1))
            else:
                assert event.profile_id < len(members)
                cancelled.setdefault(event.profile_id, clock)
    w.profiles = [profile for profile, _floor in members]
    w.added = len(members) - len(initial)

    w.visible_from, w.gone_from = [], []
    # (profile id, t-interval id) -> arrival / candidate chronons per EI.
    w.arrival, w.candidate, seq = {}, {}, []
    for profile_id, (profile, floor) in enumerate(members):
        gone = cancelled.get(profile_id, last + 1)
        for tinterval_id, eta in enumerate(profile):
            key = (profile_id, tinterval_id)
            w.visible_from.append(floor)
            w.gone_from.append(gone)
            arrival = min(max(eta.earliest_start, floor), last)
            w.arrival[key] = arrival
            seq.append((floor > 0, 0 if floor else arrival, len(seq), key))
            if floor and min(ei.finish for ei in eta) < arrival:
                w.doomed_at_birth += 1
            w.candidate[key] = [
                [] if ei.finish < arrival else
                [T for T in range(max(ei.start, arrival), ei.finish + 1)
                 if floor <= T <= min(last, gone)]
                for ei in eta]
    w.seq = [key for *_order, key in sorted(seq)]
    return w


@st.composite
def plans(draw):
    """An initial set (possibly empty) and a legal plan in any order:
    unsorted chronons, events past the epoch, profiles cancelled twice,
    cancelled in the chronon they joined, or never."""
    initial = draw(st.one_of(st.just(ProfileSet()),
                             profile_sets(max_profiles=3)))
    adds = draw(st.lists(
        st.tuples(st.integers(0, HORIZON + 2), profiles(max_tintervals=2)),
        max_size=4))
    # Ids follow application order: chronon, then plan order.
    firing = sorted((chronon, index)
                    for index, (chronon, _p) in enumerate(adds)
                    if chronon <= HORIZON)
    born = [(profile_id, 0, None) for profile_id in range(len(initial))]
    born += [(len(initial) + rank, chronon, index)
             for rank, (chronon, index) in enumerate(firing)]
    # Adds keep their drawn order (it numbers same-chronon adds); each
    # cancel goes anywhere in the plan — but in the chronon its profile
    # joins, only after that add.
    events = [ChurnEvent.add(chronon, profile) for chronon, profile in adds]
    plan = list(events)
    if born:
        for (profile_id, since, index), at in draw(st.lists(
                st.tuples(st.sampled_from(born),
                          st.integers(0, HORIZON + 2)), max_size=4)):
            low = 0
            if index is not None and at <= since:
                low = next(position for position, event in enumerate(plan)
                           if event is events[index]) + 1
            plan.insert(draw(st.integers(low, len(plan))),
                        ChurnEvent.remove(max(at, since), profile_id))
    return initial, ChurnPlan(plan)


class TestPlanLowering:
    @given(scenario=plans())
    @settings(max_examples=120, deadline=None)
    def test_lowering_equals_the_object_walk(self, scenario):
        initial, plan = scenario
        want = walk(initial, plan, HORIZON)
        lowered = lower_plan(initial, plan, epoch())
        assert (lowered.fired, lowered.added) == (want.fired, want.added)
        # The union is the set an object build gives: ids by position.
        for got, expected in zip(lowered.profiles.columns(),
                                 ProfileSet(want.profiles).columns()):
            assert np.array_equal(got, expected)
        assert lowered.visible_from.tolist() == want.visible_from
        assert lowered.gone_from.tolist() == want.gone_from

        # The columns over it: per-object oracle, every window cut.
        col = assert_same_lowering(lowered.profiles, epoch(),
                                   lowered.visible_from,
                                   lowered.gone_from)
        keys = list(zip(col.st_profile.tolist(), col.st_tid.tolist()))
        assert keys == want.seq
        assert col.st_arrival.tolist() == [want.arrival[key]
                                           for key in keys]
        first, until = col.visibility()
        for state, key in enumerate(keys):
            eis = np.flatnonzero(col.ei_state == state)
            assert [list(range(lo, hi + 1))
                    for lo, hi in zip(first[eis].tolist(),
                                      until[eis].tolist())] \
                == want.candidate[key]

        policy, preemptive = parse_policy_spec("S-EDF(P)")
        result = run_churned(initial, epoch(), BudgetVector(1), policy,
                             plan, preemptive=preemptive)
        if want.fired:
            assert result.extras["doomed_at_birth"] == want.doomed_at_birth
            assert result.extras["added_profiles"] == want.added
        else:
            assert result.extras == {}


# ----------------------------------------------------------------------
# Edge cases: columns == live proxy
# ----------------------------------------------------------------------

def _profile(*etas) -> Profile:
    return Profile([_eta(*eta) for eta in etas])


EPOCH = Epoch(12)


def _same_run(left, right) -> None:
    assert list(left.schedule.probes()) == list(right.schedule.probes())
    assert left.report == right.report
    assert left.probes_used == right.probes_used
    assert left.expired == right.expired
    assert left.extras == right.extras


def _proxy_outcome(initial, plan, label, budget, epoch, faults=None,
                   retry=None, breaker=None):
    """The plan through the live proxy: events at clock ``T`` land after
    chronon ``T`` was stepped, before the next. With a fault layer the
    outcome also carries (probes failed, retries, quarantined)."""
    policy, preemptive = parse_policy_spec(label)
    server = OriginServer(UpdateTrace([], epoch))
    if faults is not None:
        server = UnreliableServer(server, injector=faults)
    proxy = MonitoringProxy(server, epoch, budget, policy,
                            preemptive=preemptive, retry=retry,
                            breaker=breaker)
    client = proxy.register_client()
    for profile in initial:
        proxy.register_profile(client, profile)
    while True:
        for event in plan:
            if event.chronon != proxy.clock:
                continue
            if event.action == "add":
                proxy.register_profile(client, event.profile)
            else:
                proxy.unregister_profile(event.profile_id)
        if proxy.clock == epoch.last:
            break
        proxy.step()
    stats = proxy.run()
    outcome = (list(proxy.schedule.probes()), stats.completed,
               stats.expired, stats.dropped)
    if faults is None:
        return outcome
    return outcome + (stats.probes_failed, stats.retries,
                      stats.resources_quarantined)


def _outcome(result, faulty=False):
    """A columns run in the shape of :func:`_proxy_outcome`."""
    outcome = (list(result.schedule.probes()), result.report.captured,
               result.expired, int(result.extras.get("dropped", 0)))
    if not faulty:
        return outcome
    return outcome + (result.probes_failed, result.retries,
                      result.resources_quarantined)


def churned(initial, plan, label="MRSF(P)", budget=BudgetVector(1),
            epoch=EPOCH):
    """``run_churned`` on the columns, checked against the live proxy."""
    policy, preemptive = parse_policy_spec(label)
    columns = run_churned(initial, epoch, budget, policy, plan,
                          preemptive=preemptive)
    assert _outcome(columns) == _proxy_outcome(initial, plan, label,
                                               budget, epoch)
    return columns


_INITIAL = ProfileSet([_profile([(2, 2, 8)], [(1, 6, 9), (3, 10, 11)])])
#: First window closes at 3; the sibling window is still ahead at 5.
_LATE = _profile([(0, 1, 3), (1, 7, 9)])

EDGE_POLICIES = ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)", "COVERAGE(NP)")


@pytest.mark.parametrize("label", EDGE_POLICIES)
class TestEdgeCases:
    def test_add_at_clock_zero_is_not_the_initial_set(self, label):
        # Same EIs as the initial member: it still sorts after it.
        twin = _profile([(2, 2, 8)], [(1, 6, 9), (3, 10, 11)])
        result = churned(_INITIAL, ChurnPlan([ChurnEvent.add(0, twin)]),
                         label)
        assert result.extras == {"dropped": 0.0, "added_profiles": 1.0,
                                 "doomed_at_birth": 0.0}
        assert result.report.total == 4

    def test_add_at_the_last_clock_is_never_visible(self, label):
        # Registered after the last chronon ran: counted, never probed —
        # although its windows contain the arrival chronon (12).
        late = _profile([(0, 11, 12)], [(1, 12, 14)], [(4, 3, 5)])
        alone = churned(ProfileSet(),
                        ChurnPlan([ChurnEvent.add(12, late)]), label)
        assert alone.probes_used == 0
        assert alone.report.per_profile == {0: (0, 3)}
        assert alone.expired == 3
        assert alone.extras["doomed_at_birth"] == 1.0

    def test_add_past_the_epoch_never_fires(self, label):
        plan = ChurnPlan([ChurnEvent.add(13, _LATE),
                          ChurnEvent.remove(13, 0),
                          ChurnEvent.remove(40, 7)])
        result = churned(_INITIAL, plan, label)
        assert result.extras == {}
        assert result.report.total == 2

    def test_unsorted_plan_applies_in_chronon_order(self, label):
        early = _profile([(0, 4, 6)])
        plan = ChurnPlan([ChurnEvent.remove(9, 1),
                          ChurnEvent.add(8, _profile([(3, 9, 12)])),
                          ChurnEvent.add(2, early),
                          ChurnEvent.remove(10, 2)])
        result = churned(_INITIAL, plan, label)
        # ``early`` fires first and takes id 1, though it is planned last.
        assert result.report.per_profile[1] == (1, 1)
        assert result.extras["added_profiles"] == 2.0

    def test_added_and_removed_in_one_chronon(self, label):
        plan = ChurnPlan([ChurnEvent.add(4, _profile([(0, 5, 9)])),
                          ChurnEvent.remove(4, 1)])
        result = churned(_INITIAL, plan, label)
        assert result.extras["dropped"] == 1.0
        assert result.report.per_profile[1] == (0, 1)
        assert not any(rid == 0 for rid, _T in result.schedule.probes())

    def test_cancelled_before_arrival_after_a_miss_or_when_done(self, label):
        plan = ChurnPlan([
            # Complete by chronon 4, cancelled at 6: stays captured.
            ChurnEvent.add(0, _profile([(5, 3, 4)])),
            ChurnEvent.remove(6, 1),
            # Arrives at 7, cancelled at 5: never there, dropped.
            ChurnEvent.add(2, _profile([(4, 7, 9)])),
            ChurnEvent.remove(5, 2),
            # Doomed at birth (arrives at 6, [1, 3] long closed) and
            # cancelled once that miss is observable: expired.
            ChurnEvent.add(5, _LATE),
            ChurnEvent.remove(6, 3),
        ])
        result = churned(_INITIAL, plan, label, BudgetVector(2))
        assert result.report.per_profile[1] == (1, 1)
        assert result.report.per_profile[2] == (0, 1)
        assert result.report.per_profile[3] == (0, 1)
        assert result.extras == {"dropped": 1.0, "added_profiles": 3.0,
                                 "doomed_at_birth": 1.0}
        assert not any(rid == 4 for rid, _T in result.schedule.probes())

    def test_missed_deadline_then_cancelled_is_expired(self, label):
        # Budget 0 until chronon 5: [2, 3] on resource 2 is missed in
        # plain sight, then its profile is cancelled.
        budget = BudgetVector(1, overrides={T: 0 for T in range(1, 5)})
        initial = ProfileSet([_profile([(2, 2, 3), (1, 6, 9)]),
                              _profile([(3, 2, 3)])])
        gone = churned(initial, ChurnPlan([ChurnEvent.remove(4, 0)]),
                       label, budget)
        assert gone.extras["dropped"] == 0.0 and gone.expired == 2
        # Cancelled while the window was still open: dropped.
        early = churned(initial, ChurnPlan([ChurnEvent.remove(3, 0)]),
                        label, budget)
        assert early.extras["dropped"] == 1.0 and early.expired == 1

    def test_the_first_cancel_counts(self, label):
        plan = ChurnPlan([ChurnEvent.remove(9, 0), ChurnEvent.remove(3, 0),
                          ChurnEvent.remove(3, 0)])
        result = churned(_INITIAL, plan, label)
        once = churned(_INITIAL, ChurnPlan([ChurnEvent.remove(3, 0)]),
                       label)
        _same_run(result, once)
        # Gone after chronon 3: [6, 9] and [10, 11] are never probed.
        assert all(T <= 3 for _rid, T in result.schedule.probes())

    def test_every_window_closed_before_registration(self, label):
        stale = _profile([(0, 1, 2), (1, 2, 4)], [(3, 1, 1)])
        result = churned(_INITIAL, ChurnPlan([ChurnEvent.add(6, stale)]),
                         label)
        assert result.extras["doomed_at_birth"] == 2.0
        assert result.report.per_profile[1] == (0, 2)
        col_plan = lower_plan(_INITIAL, [ChurnEvent.add(6, stale)], EPOCH)
        col = ColumnarInstance.build(col_plan.profiles, EPOCH,
                                     col_plan.visible_from,
                                     col_plan.gone_from)
        first, until = col.visibility()
        added = col.st_visible[col.ei_state] > 0
        assert added.sum() == 3 and (first > until)[added].all()


class TestErrorsAndEmptyPlans:
    def test_cancel_of_an_id_registered_later_in_the_plan(self):
        plan = ChurnPlan([ChurnEvent.remove(4, 1),
                          ChurnEvent.add(4, _LATE)])
        policy, _p = parse_policy_spec("MRSF(P)")
        with pytest.raises(ModelError, match="unknown profile id 1"):
            run_churned(_INITIAL, EPOCH, BudgetVector(1), policy, plan)
        # The same two events the other way round are a legal plan.
        churned(_INITIAL, ChurnPlan(plan.events[::-1]))

    def test_cancel_of_an_initial_profile_without_tintervals(self):
        initial = ProfileSet([Profile([]), _profile([(0, 1, 2)])])
        policy, _p = parse_policy_spec("MRSF(P)")
        with pytest.raises(ModelError, match="unknown profile id 0"):
            run_churned(initial, EPOCH, BudgetVector(1), policy,
                        [ChurnEvent.remove(2, 0)])

    def test_empty_add(self):
        event = ChurnEvent.add(3, Profile([]))
        policy, _p = parse_policy_spec("S-EDF(P)")
        with pytest.raises(ModelError,
                           match="cannot register an empty profile"):
            run_churned(_INITIAL, EPOCH, BudgetVector(1), policy, [event])

    def test_bad_mode(self):
        policy, _p = parse_policy_spec("S-EDF(P)")
        with pytest.raises(ModelError, match="mode must be one of"):
            run_churned(_INITIAL, EPOCH, BudgetVector(1), policy,
                        mode="columns")

    @pytest.mark.parametrize("plan", [(), ChurnPlan(), None])
    def test_empty_plan_is_a_static_run(self, plan):
        policy, preemptive = parse_policy_spec("M-EDF(NP)")
        kwargs = {} if plan is None else {"plan": plan}
        result = run_churned(_INITIAL, EPOCH, BudgetVector(1), policy,
                             preemptive=preemptive, **kwargs)
        assert result.extras == {}
        (block,) = run_block(_INITIAL, EPOCH,
                             [(policy, preemptive, BudgetVector(1))])
        assert list(result.schedule.probes()) == \
            list(block.schedule.probes())
        assert result.report == block.report


# ----------------------------------------------------------------------
# A generated workload: window cuts, fault lanes, lanes, shards
# ----------------------------------------------------------------------

CONFIG = ChurnConfig(epoch_length=40, num_resources=8, intensity=5.0,
                     num_clients=8, profiles_per_client=3, window=6,
                     budget=2, join_spread=0.9, leave_probability=0.5,
                     seed=29)
CAPS = (1, 7, 64)


@pytest.fixture(scope="module")
def workload():
    initial, plan, epoch_ = build_churn_workload(CONFIG)
    return initial, plan, epoch_


def _fault_layer():
    return (FaultInjector(FaultSpec(failure_probability=0.3,
                                    timeout_probability=0.1, seed=7)),
            RetryConfig(max_retries=2),
            CircuitBreaker(failure_threshold=2, cooldown=3))


def _cold(workload):
    """The workload with a plan that holds no lowering yet: the window
    cap is read when a lowering is built, and a plan keeps the one it
    last served."""
    initial, plan, epoch_ = workload
    return initial, ChurnPlan.from_columns(plan.columns()), epoch_


def _lowered(workload, cap):
    initial, plan, epoch_ = workload
    lowered = lower_plan(initial, plan, epoch_)
    with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
        col = ColumnarInstance.build(lowered.profiles, epoch_,
                                     lowered.visible_from,
                                     lowered.gone_from)
    return lowered, col


class TestWindowCuts:
    def test_the_workload_has_what_the_cuts_must_carry(self, workload):
        initial, plan, epoch_ = workload
        policy, preemptive = parse_policy_spec("MRSF(P)")
        result = run_churned(initial, epoch_, BudgetVector(2), policy, plan,
                             preemptive=preemptive)
        assert result.extras["dropped"] > 0
        assert result.extras["doomed_at_birth"] > 0
        assert result.expired > result.extras["doomed_at_birth"]
        for cap, least in zip(CAPS, (epoch_.last // 2, 8, 3)):
            _plan, col = _lowered(workload, cap)
            wins = list(col.windows())
            assert len(wins) >= least
            # Late and cancelled t-intervals have entries on both sides
            # of a cut.
            crossing: set[int] = set()
            for before, after in zip(wins, wins[1:]):
                crossing |= (set(before.ps_act.tolist())
                             & set(after.ps_act.tolist()))
            crossing = np.array(sorted(crossing), dtype=np.int64)
            assert (col.st_visible[crossing] > 0).any()
            assert (col.st_gone[crossing] <= epoch_.last).any()

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("label", POLICIES)
    def test_any_cut_gives_the_event_engines_run(self, workload, cap,
                                                 label):
        initial, plan, epoch_ = _cold(workload)
        policy, preemptive = parse_policy_spec(label)
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            result = run_churned(initial, epoch_, BudgetVector(2), policy,
                                 plan, preemptive=preemptive)
        assert plan._lowering.columnar.windows_built > 1
        assert _outcome(result) == _proxy_outcome(
            initial, plan, label, BudgetVector(2), epoch_)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("label", ["MRSF(NP)", "M-EDF(P)",
                                       "S-EDF(NP)"])
    def test_fault_lane_and_bursty_budget_across_cuts(self, workload, cap,
                                                      label):
        initial, plan, epoch_ = _cold(workload)
        budget = BudgetVector(1, overrides={
            T: T % 4 for T in range(3, epoch_.last, 3)})
        faults, retry, breaker = _fault_layer()
        expected = _proxy_outcome(initial, plan, label, budget, epoch_,
                                  faults, retry, breaker)
        policy, preemptive = parse_policy_spec(label)
        lane_faults, retry, lane_breaker = _fault_layer()
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            result = run_churned(
                initial, epoch_, budget, policy, plan,
                preemptive=preemptive, faults=lane_faults, retry=retry,
                breaker=lane_breaker)
        assert plan._lowering.columnar.windows_built > 1
        assert result.probes_failed > 0 and result.retries > 0
        assert _outcome(result, faulty=True) == expected
        assert list(lane_faults.trace) == list(faults.trace)
        assert _breaker_state(lane_breaker) == _breaker_state(breaker)


class TestLanesAndShards:
    LABELS = ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)")

    def test_three_lanes_of_one_block_are_three_runs(self, workload):
        initial, plan, epoch_ = workload
        lowered, col = _lowered(workload, 64)
        lanes = [parse_policy_spec(label) + (BudgetVector(2),)
                 for label in self.LABELS]
        block = run_block(lowered.profiles, epoch_, lanes, columnar=col)
        for label, lane in zip(self.LABELS, block):
            policy, preemptive = parse_policy_spec(label)
            alone = run_churned(initial, epoch_, BudgetVector(2), policy,
                                plan, preemptive=preemptive)
            assert list(lane.schedule.probes()) == \
                list(alone.schedule.probes())
            assert lane.report == alone.report
            assert lane.expired == alone.expired
            assert lane.extras["dropped"] == alone.extras["dropped"]

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_federation_books_cancelled_tintervals(self, workload, shards,
                                                   faulty):
        """A churned lowering under ``federated_run``: the merged
        capture state reaches the final accounting, so K shards equal
        the one-lane block — dropped and expired included."""
        initial, plan, epoch_ = workload
        lowered, col = _lowered(workload, 64)
        for label in self.LABELS + ("COVERAGE(NP)",):
            policy, preemptive = parse_policy_spec(label)
            layer = _fault_layer() if faulty else (None, None, None)
            federated = federated_run(
                lowered.profiles, epoch_, BudgetVector(2), policy,
                preemptive=preemptive, shards=shards, faults=layer[0],
                retry=layer[1], breaker=layer[2], columnar=col).result
            policy, preemptive = parse_policy_spec(label)
            other = _fault_layer() if faulty else (None, None, None)
            alone = run_churned(initial, epoch_, BudgetVector(2), policy,
                                plan, preemptive=preemptive,
                                faults=other[0], retry=other[1],
                                breaker=other[2])
            _assert_same_faulty_run(alone, federated,
                                    (other[0], other[2]),
                                    (layer[0], layer[2]))
            assert federated.extras["dropped"] == alone.extras["dropped"]
            assert federated.extras["dropped"] > 0


# ----------------------------------------------------------------------
# One window in flight
# ----------------------------------------------------------------------

class TestOneWindowInFlight:
    """While a loop runs a multi-window lowering it holds its run state
    and one window: when the next window's build starts, nothing of the
    previous one is alive — not through the loop variable, the loop's
    per-window locals, the last chronon's views, or the generator."""

    CONFIG = ChurnConfig(epoch_length=160, num_resources=30, intensity=6.0,
                         num_clients=140, profiles_per_client=8, window=12,
                         budget=2, join_spread=0.9, leave_probability=0.5,
                         seed=31)

    def _block(self, lowered, col, epoch_):
        lanes = [parse_policy_spec(label) + (BudgetVector(2),)
                 for label in ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)")]
        run_block(lowered.profiles, epoch_, lanes, columnar=col)

    def _shards(self, lowered, col, epoch_):
        policy, preemptive = parse_policy_spec("M-EDF(NP)")
        federated_run(lowered.profiles, epoch_, BudgetVector(2), policy,
                      preemptive=preemptive, shards=4, columnar=col)

    @pytest.mark.parametrize("runner", ["_block", "_shards"])
    def test_no_window_is_alive_when_the_next_is_built(self, runner):
        workload = build_churn_workload(self.CONFIG)
        lowered, col = _lowered(workload, 12288)
        held_before: list[int] = []
        window_bytes: list[int] = []
        build = ActivityWindow.__init__

        def spy(self, *args):
            held_before.append(tracemalloc.get_traced_memory()[0])
            build(self, *args)
            window_bytes.append(_array_bytes(self) + sum(
                column.nbytes for column in self.hi_static.values()))

        tracemalloc.start()
        try:
            with mock.patch.object(ActivityWindow, "__init__", spy):
                getattr(self, runner)(lowered, col, workload[2])
        finally:
            tracemalloc.stop()
        assert len(window_bytes) >= 4
        assert min(window_bytes[:-1]) > 400_000
        # Run state grows a little (probe log, a wider key buffer); a
        # window still held would show as at least its own bytes.
        for before, previous in zip(held_before[1:], window_bytes):
            assert before - held_before[0] < previous / 2


# ----------------------------------------------------------------------
# No fallback: what the columns cannot serve is refused, loudly
# ----------------------------------------------------------------------

class TestFallbackIsLogged:
    """There is no fallback, so nothing to log: a churned run is the
    columns or a refusal, before any chronon runs, that names the cause
    and the live proxy as the way to run it."""

    PLAN = ChurnPlan([ChurnEvent.add(5, _LATE), ChurnEvent.remove(7, 0)])

    def _churned(self, label, plan=PLAN, **kwargs):
        policy, preemptive = parse_policy_spec(label)
        return run_churned(_INITIAL, EPOCH, BudgetVector(1), policy,
                           plan, preemptive=preemptive, **kwargs)

    def _refused(self, label, cause, **kwargs):
        plan = ChurnPlan(self.PLAN.events)
        with pytest.raises(BatchUnsupported, match=cause) as refusal:
            self._churned(label, plan, **kwargs)
        assert "MonitoringProxy" in str(refusal.value)
        # Before any chronon: the plan was lowered, no window was built.
        assert plan._lowering.columnar.windows_built == 0

    def test_a_supported_run_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.simulation"):
            self._churned("MRSF(P)")
        assert [record for record in caplog.records
                if record.levelno >= logging.INFO] == []

    def test_random_policy(self):
        self._refused("RANDOM(NP)", "no columnar scoring kind")
        # The way to run it: the live proxy takes any policy.
        probes, completed, expired, dropped = _proxy_outcome(
            _INITIAL, self.PLAN, "RANDOM(NP)", BudgetVector(1), EPOCH)
        assert completed + expired + dropped == 3 and probes

    def test_custom_state_factory(self):
        def factory(eta, profile_rank):
            return QuotaTIntervalState(eta, profile_rank, 1)

        with pytest.raises(TypeError, match="state_factory"):
            self._churned("MRSF(P)", state_factory=factory)

    def test_replayed_fault_trace(self):
        recorder = FaultInjector(FaultSpec(failure_probability=0.5,
                                           seed=11))
        recorded = self._churned("S-EDF(P)", faults=recorder)
        assert recorded.probes_failed > 0
        self._refused("S-EDF(P)", "RecordedFaults",
                      faults=RecordedFaults(recorder.trace))
        # The way to run it: the live proxy replays the trace.
        replayed = _proxy_outcome(
            _INITIAL, self.PLAN, "S-EDF(P)", BudgetVector(1), EPOCH,
            faults=recorder.trace.replay())
        assert replayed == _outcome(recorded, faulty=True)
