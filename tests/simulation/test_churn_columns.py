"""Churn as lifetimes: a plan lowered to columns, against object walks.

:func:`~repro.simulation.churn.lower_plan` turns (initial set, plan)
into a union profile set and two per-t-interval vectors, and
:func:`~repro.simulation.churn.run_churned` runs one lane of the block
kernel over the lowering they give. Nothing here trusts the formulas:

* the lowering is compared with a plain Python walk that applies the
  plan event by event and the fast engine's ``_queue_events`` rule EI by
  EI (nothing for an EI closed before its t-interval arrived, otherwise
  a candidate from ``max(start, arrival)``, cut at the cancel clock),
  and with the per-object oracle wherever the windows are cut (both in
  ``tests/conformance/lowering.py``);
* the runs are held to the conformance matrix's ``live`` referee — the
  ``MonitoringProxy`` registering and cancelling as the plan says,
  faults included.
"""

import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    BudgetVector,
    ModelError,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.faults import FaultSpec, RetryConfig
from repro.online.registry import parse_policy_spec
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

from tests.conformance.cases import (
    HAND_EPOCH,
    HAND_INITIAL,
    HAND_LATE,
    ROW_POLICIES,
    Case,
    hand_profile,
    make_policy,
)
from tests.conformance.engines import (
    assert_agree,
    assert_same_run,
    churned,
    observe,
    referee_run,
)
from tests.conformance.lowering import (
    array_bytes,
    assert_same_lowering,
    cpus,
    walk,
)
from tests.properties.strategies import HORIZON, epoch, plans


class TestPlanLowering:
    @given(scenario=plans(quotas=True))
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

EDGE_POLICIES = ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)", "COVERAGE(NP)")


@pytest.mark.parametrize("label", EDGE_POLICIES)
class TestEdgeCases:
    def test_add_at_clock_zero_is_not_the_initial_set(self, label):
        # Same EIs as the initial member: it still sorts after it.
        twin = hand_profile([(2, 2, 8)], [(1, 6, 9), (3, 10, 11)])
        result = churned(HAND_INITIAL, ChurnPlan([ChurnEvent.add(0, twin)]),
                         label)
        assert result.extras == {"dropped": 0.0, "added_profiles": 1.0,
                                 "doomed_at_birth": 0.0}
        assert result.report.total == 4

    def test_add_at_the_last_clock_is_never_visible(self, label):
        # Registered after the last chronon ran: counted, never probed —
        # although its windows contain the arrival chronon (12).
        late = hand_profile([(0, 11, 12)], [(1, 12, 14)], [(4, 3, 5)])
        alone = churned(ProfileSet(),
                        ChurnPlan([ChurnEvent.add(12, late)]), label)
        assert alone.probes_used == 0
        assert alone.report.per_profile == {0: (0, 3)}
        assert alone.expired == 3
        assert alone.extras["doomed_at_birth"] == 1.0

    def test_added_and_removed_at_the_last_clock(self, label):
        # Registered once the epoch is over, it expired on arrival: the
        # cancel that follows drops nothing.
        plan = ChurnPlan([ChurnEvent.add(12, hand_profile([(0, 1, 1)],
                                                          [(1, 6, 12)])),
                          ChurnEvent.remove(12, 1)])
        result = churned(HAND_INITIAL, plan, label)
        assert result.extras["dropped"] == 0.0
        assert result.report.per_profile[1] == (0, 2)

    def test_add_past_the_epoch_never_fires(self, label):
        plan = ChurnPlan([ChurnEvent.add(13, HAND_LATE),
                          ChurnEvent.remove(13, 0),
                          ChurnEvent.remove(40, 7)])
        result = churned(HAND_INITIAL, plan, label)
        assert result.extras == {}
        assert result.report.total == 2

    def test_unsorted_plan_applies_in_chronon_order(self, label):
        early = hand_profile([(0, 4, 6)])
        plan = ChurnPlan([ChurnEvent.remove(9, 1),
                          ChurnEvent.add(8, hand_profile([(3, 9, 12)])),
                          ChurnEvent.add(2, early),
                          ChurnEvent.remove(10, 2)])
        result = churned(HAND_INITIAL, plan, label)
        # ``early`` fires first and takes id 1, though it is planned last.
        assert result.report.per_profile[1] == (1, 1)
        assert result.extras["added_profiles"] == 2.0

    def test_added_and_removed_in_one_chronon(self, label):
        plan = ChurnPlan([ChurnEvent.add(4, hand_profile([(0, 5, 9)])),
                          ChurnEvent.remove(4, 1)])
        result = churned(HAND_INITIAL, plan, label)
        assert result.extras["dropped"] == 1.0
        assert result.report.per_profile[1] == (0, 1)
        assert not any(rid == 0 for rid, _T in result.schedule.probes())

    def test_cancelled_before_arrival_after_a_miss_or_when_done(self, label):
        plan = ChurnPlan([
            # Complete by chronon 4, cancelled at 6: stays captured.
            ChurnEvent.add(0, hand_profile([(5, 3, 4)])),
            ChurnEvent.remove(6, 1),
            # Arrives at 7, cancelled at 5: never there, dropped.
            ChurnEvent.add(2, hand_profile([(4, 7, 9)])),
            ChurnEvent.remove(5, 2),
            # Doomed at birth (arrives at 6, [1, 3] long closed) and
            # cancelled once that miss is observable: expired.
            ChurnEvent.add(5, HAND_LATE),
            ChurnEvent.remove(6, 3),
        ])
        result = churned(HAND_INITIAL, plan, label, BudgetVector(2))
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
        initial = ProfileSet([hand_profile([(2, 2, 3), (1, 6, 9)]),
                              hand_profile([(3, 2, 3)])])
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
        result = churned(HAND_INITIAL, plan, label)
        once = churned(HAND_INITIAL, ChurnPlan([ChurnEvent.remove(3, 0)]),
                       label)
        assert_same_run(result, once)
        # Gone after chronon 3: [6, 9] and [10, 11] are never probed.
        assert all(T <= 3 for _rid, T in result.schedule.probes())

    def test_every_window_closed_before_registration(self, label):
        stale = hand_profile([(0, 1, 2), (1, 2, 4)], [(3, 1, 1)])
        result = churned(HAND_INITIAL, ChurnPlan([ChurnEvent.add(6, stale)]),
                         label)
        assert result.extras["doomed_at_birth"] == 2.0
        assert result.report.per_profile[1] == (0, 2)
        col_plan = lower_plan(HAND_INITIAL, [ChurnEvent.add(6, stale)], HAND_EPOCH)
        col = ColumnarInstance.build(col_plan.profiles, HAND_EPOCH,
                                     col_plan.visible_from,
                                     col_plan.gone_from)
        first, until = col.visibility()
        added = col.st_visible[col.ei_state] > 0
        assert added.sum() == 3 and (first > until)[added].all()


class TestErrorsAndEmptyPlans:
    def test_cancel_of_an_id_registered_later_in_the_plan(self):
        plan = ChurnPlan([ChurnEvent.remove(4, 1),
                          ChurnEvent.add(4, HAND_LATE)])
        policy, _p = parse_policy_spec("MRSF(P)")
        with pytest.raises(ModelError, match="unknown profile id 1"):
            run_churned(HAND_INITIAL, HAND_EPOCH, BudgetVector(1), policy, plan)
        # The same two events the other way round are a legal plan.
        churned(HAND_INITIAL, ChurnPlan(plan.events[::-1]))

    def test_cancel_of_an_initial_profile_without_tintervals(self):
        # An empty profile holds its id like any other: cancelling it is
        # legal and drops nothing.
        initial = ProfileSet([Profile([]), hand_profile([(0, 1, 2)])])
        result = churned(initial, ChurnPlan([ChurnEvent.remove(2, 0)]))
        assert result.report.per_profile == {0: (0, 0), 1: (1, 1)}
        assert result.extras["dropped"] == 0

    def test_empty_add(self):
        # An empty add takes the next id (1), so the add after it is 2,
        # and both ids are there to cancel.
        plan = ChurnPlan([ChurnEvent.add(3, Profile([])),
                          ChurnEvent.add(3, HAND_LATE),
                          ChurnEvent.remove(4, 1),
                          ChurnEvent.remove(8, 2)])
        result = churned(HAND_INITIAL, plan, "S-EDF(P)")
        assert sorted(result.report.per_profile) == [0, 1, 2]
        assert result.report.per_profile[1] == (0, 0)
        assert result.report.per_profile[2][1] == len(HAND_LATE)
        assert result.extras["added_profiles"] == 2

    def test_bad_mode(self):
        policy, _p = parse_policy_spec("S-EDF(P)")
        with pytest.raises(ModelError, match="mode must be one of"):
            run_churned(HAND_INITIAL, HAND_EPOCH, BudgetVector(1), policy,
                        mode="columns")

    @pytest.mark.parametrize("plan", [(), ChurnPlan(), None])
    def test_empty_plan_is_a_static_run(self, plan):
        policy, preemptive = parse_policy_spec("M-EDF(NP)")
        kwargs = {} if plan is None else {"plan": plan}
        result = run_churned(HAND_INITIAL, HAND_EPOCH, BudgetVector(1), policy,
                             preemptive=preemptive, **kwargs)
        assert result.extras == {}
        (block,) = run_block(HAND_INITIAL, HAND_EPOCH,
                             [(policy, preemptive, BudgetVector(1))])
        assert_same_run(result, block)


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


def _faulty(initial, plan, epoch_, label, budget) -> Case:
    """A recording fault layer with retries and a breaker."""
    return Case(initial, epoch_, label, budget, "recording",
                FaultSpec(failure_probability=0.3, timeout_probability=0.1,
                          seed=7), RetryConfig(max_retries=2), (2, 3), plan)


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
            # Each window read before the next is asked for.
            states = [set(win.ps_act.tolist()) for win in col.windows()]
            assert len(states) >= least
            # Late and cancelled t-intervals have entries on both sides
            # of a cut.
            crossing: set[int] = set()
            for before, after in zip(states, states[1:]):
                crossing |= before & after
            crossing = np.array(sorted(crossing), dtype=np.int64)
            assert (col.st_visible[crossing] > 0).any()
            assert (col.st_gone[crossing] <= epoch_.last).any()

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("label", ROW_POLICIES)
    def test_any_cut_gives_the_event_engines_run(self, workload, cap,
                                                 label):
        initial, plan, epoch_ = _cold(workload)
        policy, preemptive = parse_policy_spec(label)
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            result = run_churned(initial, epoch_, BudgetVector(2), policy,
                                 plan, preemptive=preemptive)
        assert plan._lowering.columnar.windows_built > 1
        assert_agree(observe(result), referee_run(
            Case(initial, epoch_, label, BudgetVector(2), plan=plan)))

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("label", ["MRSF(NP)", "M-EDF(P)",
                                       "S-EDF(NP)"])
    def test_fault_lane_and_bursty_budget_across_cuts(self, workload, cap,
                                                      label):
        initial, plan, epoch_ = _cold(workload)
        budget = BudgetVector(1, overrides={
            T: T % 4 for T in range(3, epoch_.last, 3)})
        case = _faulty(initial, plan, epoch_, label, budget)
        expected = referee_run(case)
        policy, preemptive = parse_policy_spec(label)
        faults, retry, breaker = case.layer()
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            result = run_churned(
                initial, epoch_, budget, policy, plan,
                preemptive=preemptive, faults=faults, retry=retry,
                breaker=breaker)
        assert plan._lowering.columnar.windows_built > 1
        assert result.probes_failed > 0 and result.retries > 0
        assert_agree(observe(result, faults, breaker), expected)


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
            assert_same_run(lane, alone)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_federation_books_cancelled_tintervals(self, workload, shards):
        """A churned lowering under ``federated_run`` (a reliable run:
        the federation takes no fault layer): the final capture state
        reaches the accounting, so K shards are the live referee's run —
        dropped and expired included."""
        initial, plan, epoch_ = workload
        lowered, col = _lowered(workload, 64)
        for label in self.LABELS + ("COVERAGE(NP)",):
            case = Case(initial, epoch_, label, BudgetVector(2), plan=plan)
            policy, preemptive = parse_policy_spec(label)
            federated = federated_run(
                lowered.profiles, epoch_, BudgetVector(2), policy,
                preemptive=preemptive, shards=shards, columnar=col).result
            assert_agree(observe(federated), referee_run(case))
            assert federated.extras["dropped"] > 0


# ----------------------------------------------------------------------
# One window in flight
# ----------------------------------------------------------------------

class TestOneWindowInFlight:
    """While a loop runs a multi-window lowering it holds its run state
    and one window: when the next window's build starts, nothing of the
    previous one is alive — not through the loop variable, the loop's
    per-window locals, the last chronon's views, or the generators. A
    lowering the run builds itself streams its index too; one its caller
    hands in keeps the index, 8 bytes per entry, and every later run on
    it builds only its per-run columns, still one window at a time. A
    streamed window that a producer built costs the loop its ring slot,
    two slots a run, and no traced byte per window."""

    CONFIG = ChurnConfig(epoch_length=160, num_resources=120, intensity=6.0,
                         num_clients=140, profiles_per_client=8, window=12,
                         budget=2, join_spread=0.9, leave_probability=0.5,
                         seed=31)
    CAP = 12288

    def _block(self, lowered, col, epoch_):
        lanes = [parse_policy_spec(label) + (BudgetVector(2),)
                 for label in ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)")]
        run_block(lowered.profiles, epoch_, lanes, columnar=col)

    def _shards(self, lowered, col, epoch_):
        policy, preemptive = parse_policy_spec("M-EDF(NP)")
        federated_run(lowered.profiles, epoch_, BudgetVector(2), policy,
                      preemptive=preemptive, shards=4, columnar=col)

    @staticmethod
    def _sampled(run, streamed: bool) -> tuple[list[int], list[int]]:
        """Traced bytes as each window's columns start to build, and each
        window's bytes once built — the index's counted with them when
        ``streamed`` (built for the window, not held by the lowering)."""
        held_before: list[int] = []
        window_bytes: list[int] = []
        build = ActivityWindow.__init__

        def spy(self, col, lo, hi, act_e, ps_act, keys, sorted_from=None):
            index = act_e.nbytes + ps_act.nbytes
            # A window built with its index also has the sort's output.
            fresh = index + sum(part.nbytes for part in sorted_from or ())
            held_before.append(tracemalloc.get_traced_memory()[0]
                               - (fresh if streamed else 0))
            build(self, col, lo, hi, act_e, ps_act, keys, sorted_from)
            window_bytes.append(
                array_bytes(self) - (0 if streamed else index)
                + sum(column.nbytes for column in self.hi_static.values()))

        with mock.patch.object(ActivityWindow, "__init__", spy):
            run()
        return held_before, window_bytes

    @staticmethod
    def _one_in_flight(held_before, window_bytes) -> None:
        assert len(window_bytes) >= 4
        assert min(window_bytes[:-1]) > 200_000
        # Run state grows a little (probe log, a wider key buffer); a
        # window still held would show as at least its own bytes.
        for before, previous in zip(held_before[1:], window_bytes):
            assert before - held_before[0] < previous / 2

    @pytest.mark.parametrize("runner", ["_block", "_shards"])
    def test_no_window_is_alive_when_the_next_is_built(self, runner):
        initial, plan, epoch_ = build_churn_workload(self.CONFIG)
        lowered = lower_plan(initial, plan, epoch_)
        tracemalloc.start()
        try:
            # Built in this process, where the spy can see each build.
            with cpus(1), mock.patch.object(columnar_module,
                                            "_WINDOW_ENTRIES", self.CAP):
                samples = self._sampled(lambda: getattr(self, runner)(
                    lowered, None, epoch_), streamed=True)
        finally:
            tracemalloc.stop()
        self._one_in_flight(*samples)

    @pytest.mark.parametrize("runner", ["_block", "_shards"])
    def test_a_produced_window_is_a_ring_slot(self, runner):
        initial, plan, epoch_ = build_churn_workload(self.CONFIG)
        lowered = lower_plan(initial, plan, epoch_)
        held_before: list[int] = []
        served: list = []
        wrap, build = ActivityWindow.built.__func__, ActivityWindow.__init__
        built_here: list = []

        def spy(cls, col, lo, hi, act_e, ps_act, grp_of, hi_static):
            held_before.append(tracemalloc.get_traced_memory()[0])
            served.append((col, act_e.size, len(hi_static)))
            return wrap(cls, col, lo, hi, act_e, ps_act, grp_of, hi_static)

        def building(window, *args):
            # A call in the producer is recorded in the producer only.
            built_here.append(window)
            build(window, *args)

        tracemalloc.start()
        try:
            with cpus(2), \
                    mock.patch.object(columnar_module, "_WINDOW_ENTRIES",
                                      self.CAP), \
                    mock.patch.object(ActivityWindow, "built",
                                      classmethod(spy)), \
                    mock.patch.object(ActivityWindow, "__init__", building):
                getattr(self, runner)(lowered, None, epoch_)
        finally:
            tracemalloc.stop()
        assert built_here == []
        (col,), widest = {c for c, _n, _k in served}, \
            max(n for _c, n, _k in served)
        rows = served[0][2]
        assert len(served) == col.windows_built >= 4
        assert widest > 12_000
        # Two slots of the widest window: 16 B an entry and 8 per row.
        assert col._producer["ring_bytes"] == 2 * widest * (16 + 8 * rows)
        assert col._producer["peak_traced"] > 0
        # Run state grows a little (probe log, a wider key buffer); a
        # window's columns built or copied here would show as at least
        # a slot's bytes.
        for before in held_before[1:]:
            assert before - held_before[0] < widest * (16 + 8 * rows) / 2

    @pytest.mark.parametrize("runner", ["_block", "_shards"])
    def test_a_kept_index_is_8_bytes_an_entry_and_built_once(self,
                                                             runner):
        workload = build_churn_workload(self.CONFIG)
        lowered, col = _lowered(workload, self.CAP)
        entries = int(col._grp_size.sum())
        run = lambda: getattr(self, runner)(lowered, col, workload[2])
        # A first run on a lowering of its own fills what a process
        # fills once (imports, registries), which is not the index.
        getattr(self, runner)(lowered, None, workload[2])
        columns = col.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            grown = tracemalloc.get_traced_memory()[0] - before
            cuts = col.windows_built
            samples = self._sampled(run, streamed=False)
        finally:
            tracemalloc.stop()
        assert col.windows_built == cuts >= 4
        assert col.nbytes - columns == 8 * entries
        # The two int32 columns and their array and tuple objects.
        assert grown < 8 * entries + 1024 * cuts
        self._one_in_flight(*samples)


# ----------------------------------------------------------------------
# No fallback: what the columns cannot serve is refused, loudly
# ----------------------------------------------------------------------

class TestFallbackIsLogged:
    """There is no fallback, so nothing to log: a churned run is the
    columns or a refusal, before any chronon runs, that names the cause
    and the live proxy as the way to run it."""

    PLAN = ChurnPlan([ChurnEvent.add(5, HAND_LATE), ChurnEvent.remove(7, 0)])

    def _churned(self, label, plan=PLAN, **kwargs):
        policy, preemptive = make_policy(label)
        return run_churned(HAND_INITIAL, HAND_EPOCH, BudgetVector(1), policy,
                           plan, preemptive=preemptive, **kwargs)

    def _refused(self, label, cause):
        plan = ChurnPlan(self.PLAN.events)
        with pytest.raises(BatchUnsupported, match=cause) as refusal:
            self._churned(label, plan)
        assert "MonitoringProxy" in str(refusal.value)
        # Before any chronon: the plan was lowered, no window was built.
        assert plan._lowering.columnar.windows_built == 0

    def test_a_supported_run_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.simulation"):
            self._churned("MRSF(P)")
        assert [record for record in caplog.records
                if record.levelno >= logging.INFO] == []

    def test_random_policy(self, caplog):
        # RANDOM is a row: the columns serve it, as the live proxy runs it.
        with caplog.at_level(logging.INFO, logger="repro.simulation"):
            churned(HAND_INITIAL, self.PLAN, "RANDOM(NP)")
        assert caplog.records == []

    def test_a_policy_without_a_row(self):
        self._refused("LOUD-MRSF(NP)", "no columnar scoring kind")
        # The way to run it: the live proxy takes any policy.
        live = referee_run(Case(HAND_INITIAL, HAND_EPOCH, "LOUD-MRSF(NP)",
                                BudgetVector(1), plan=self.PLAN))
        assert live["captured"] + live["expired"] + live["dropped"] == 3
        assert live["probes"]

    def test_custom_state_factory(self):
        # A completion rule is data, not a hook: the late t-interval
        # needing one of its two EIs is not doomed by its closed first
        # window, and the columns run it as the live proxy does.
        late = Profile([TInterval(HAND_LATE[0].eis, need=1)])
        plan = ChurnPlan([ChurnEvent.add(5, late), ChurnEvent.remove(7, 0)])
        result = churned(HAND_INITIAL, plan)
        assert result.extras["doomed_at_birth"] == 0.0
        assert result.report.per_profile[1] == (1, 1)
