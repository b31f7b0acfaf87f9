"""A plan is its columns, and remembers its lowering.

:class:`~repro.simulation.churn.ChurnPlan` answers from
:class:`~repro.simulation.churn.PlanColumns` — born from them
(``from_columns``) or walking its events once — and
:func:`~repro.simulation.churn.lower_plan` is array code over those.
Nothing here trusts the arrays:

* a column-born plan lowers to what the hand-built plan lowers to and to
  what the event-by-event walk (``tests/conformance/lowering.py``) says, order-exact
  errors included;
* the churn experiment's column-born workload — every client's draws
  through one ``build_columns`` — is compared with a per-client,
  per-object build of the same scenario (the builder the experiment
  used to have, kept here as the reference), at its edges too;
* the lowering a plan keeps is checked from outside: constructor calls
  counted, what invalidates it, what a reused run may not inherit.
"""

import logging
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    BudgetVector,
    Epoch,
    ModelError,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.core.profile import ProfileColumns
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryConfig,
)
from repro.simulation import (
    ChurnEvent,
    ChurnPlan,
    run_churned,
)
from repro.simulation import columnar as columnar_module
from repro.simulation.churn import lower_plan
from repro.simulation.columnar import BatchUnsupported, ColumnarInstance
from repro.traces.models import PoissonUpdateModel
from repro.workloads.generator import GeneratorConfig
from repro.workloads.templates import AuctionWatchTemplate

from tests.conformance.cases import (
    HAND_EPOCH,
    HAND_INITIAL,
    HAND_LATE,
    PINNED,
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
from tests.conformance.lowering import walk
from tests.properties.strategies import HORIZON, epoch, plans
from tests.workloads import oracle


def column_born(plan: ChurnPlan) -> ChurnPlan:
    """The same plan with no event object behind it."""
    return ChurnPlan.from_columns(ChurnPlan(plan.events).columns())


def assert_same_lowering(left, right) -> None:
    assert left.profiles.columns().names == right.profiles.columns().names
    for got, want in zip(left.profiles.columns()[1:],
                         right.profiles.columns()[1:]):
        assert np.array_equal(got, want)
    assert np.array_equal(left.visible_from, right.visible_from)
    assert np.array_equal(left.gone_from, right.gone_from)
    assert (left.fired, left.added) == (right.fired, right.added)


def _run(initial, plan, label, epoch_=HAND_EPOCH, budget=BudgetVector(1),
         **kwargs):
    policy, preemptive = make_policy(label)
    return run_churned(initial, epoch_, budget, policy, plan,
                       preemptive=preemptive, **kwargs)


# ----------------------------------------------------------------------
# Columns against the object walk
# ----------------------------------------------------------------------

class TestPlanColumns:
    @given(scenario=plans(quotas=True))
    @settings(max_examples=120, deadline=None)
    def test_column_born_lowers_like_hand_built_like_the_walk(self,
                                                              scenario):
        initial, plan = scenario
        born = column_born(plan)
        assert born._events is None and len(born) == len(plan)
        lowered = lower_plan(initial, born, epoch())
        assert_same_lowering(lowered, lower_plan(initial, plan, epoch()))
        want = walk(initial, plan, HORIZON)
        assert (lowered.fired, lowered.added) == (want.fired, want.added)
        assert lowered.visible_from.tolist() == want.visible_from
        assert lowered.gone_from.tolist() == want.gone_from
        for got, expected in zip(lowered.profiles.columns(),
                                 ProfileSet(want.profiles).columns()):
            assert np.array_equal(got, expected)
        # Lowering reads arrays only; the events appear on demand and
        # are the plan again.
        assert born._events is None
        assert ChurnPlan(born.events) == plan == born
        assert hash(born) == hash(plan)

    def test_the_columns_of_a_plan(self):
        late = hand_profile([(0, 1, 3)], [(1, 7, 9), (2, 8, 9)])
        plan = ChurnPlan([ChurnEvent.remove(9, 0), ChurnEvent.add(2, late),
                          ChurnEvent.add(0, HAND_LATE),
                          ChurnEvent.remove(4, 7)])
        columns = plan.columns()
        assert columns is plan.columns()
        assert columns.is_add.tolist() == [False, True, True, False]
        assert columns.chronon.tolist() == [9, 2, 0, 4]
        assert columns.ref.tolist() == [0, 0, 1, 7]
        for got, want in zip(columns.added,
                             ProfileColumns.of([late, HAND_LATE])):
            assert np.array_equal(got, want)
        events = column_born(plan).events
        assert [(e.chronon, e.action, e.profile_id) for e in events] \
            == [(e.chronon, e.action, e.profile_id) for e in plan]
        assert [[ei for eta in e.profile for ei in eta.eis]
                for e in events if e.action == "add"] \
            == [[ei for eta in p for ei in eta.eis] for p in (late, HAND_LATE)]

    def test_len_bool_iter_answer_without_objects(self):
        born = column_born(ChurnPlan([ChurnEvent.add(3, HAND_LATE)]))
        assert len(born) == 1 and born and born._events is None
        assert not ChurnPlan.from_columns(ChurnPlan().columns())
        (event,) = born
        assert event.action == "add" and born._events is not None

    @pytest.mark.parametrize("columns, message", [
        (lambda c: c._replace(chronon=c.chronon - 9), "chronon must be"),
        (lambda c: c._replace(ref=c.ref + 1), "in plan order"),
        (lambda c: c._replace(is_add=c.is_add.astype(np.int64)),
         "one bool and two integer vectors"),
        (lambda c: c._replace(ref=c.ref[:-1]), "of one length"),
        (lambda c: c._replace(added=c.added._replace(
            ei_start=c.added.ei_start * 0)), "added profiles: every EI"),
    ])
    def test_bad_columns_are_refused(self, columns, message):
        good = ChurnPlan([ChurnEvent.add(3, HAND_LATE),
                          ChurnEvent.remove(5, 0)]).columns()
        with pytest.raises(ModelError, match=message):
            ChurnPlan.from_columns(columns(good))

    def test_plans_compare_by_value(self):
        twin = hand_profile([(0, 1, 3), (1, 7, 9)])
        plan = ChurnPlan([ChurnEvent.add(5, HAND_LATE)])
        assert plan == ChurnPlan([ChurnEvent.add(5, twin)])
        assert plan != ChurnPlan([ChurnEvent.add(6, twin)])
        assert plan != ChurnPlan([ChurnEvent.add(5, hand_profile([(0, 1, 4),
                                                              (1, 7, 9)]))])
        assert plan != ChurnPlan() and plan != [ChurnEvent.add(5, HAND_LATE)]
        assert len({plan, column_born(plan), ChurnPlan()}) == 2
        # Beyond int64 the columns sit at the type's bound: plans that
        # differ only out there (nothing fires, no id exists) are equal.
        assert ChurnPlan([ChurnEvent.remove(10 ** 30, 1)]) \
            == ChurnPlan([ChurnEvent.remove(10 ** 31, 1)])


def _raises_everywhere(initial, plan, message) -> None:
    """Columns and column-born columns refuse ``plan`` with the same
    words."""
    for candidate in (plan, column_born(plan)):
        with pytest.raises(ModelError, match=message):
            _run(initial, candidate, "MRSF(P)")


class TestOrderExactEdges:
    def test_adds_past_the_epoch_are_not_in_the_union(self):
        # The gather branch: add 1 of 3 never fires, the others swap.
        first, second = hand_profile([(3, 9, 12)]), hand_profile([(0, 4, 6)])
        plan = ChurnPlan([ChurnEvent.add(8, first),
                          ChurnEvent.add(13, HAND_LATE),
                          ChurnEvent.add(2, second),
                          ChurnEvent.remove(10, 2)])
        for candidate in (plan, column_born(plan)):
            lowered = lower_plan(HAND_INITIAL, candidate, HAND_EPOCH)
            assert (lowered.fired, lowered.added) == (3, 2)
            assert len(lowered.profiles) == 3
            assert [[ei for eta in p for ei in eta.eis]
                    for p in lowered.profiles][1:] \
                == [[ei for eta in p for ei in eta.eis]
                    for p in (second, first)]
            assert lowered.visible_from.tolist() == [0, 0, 3, 9]
            assert lowered.gone_from.tolist() == [13, 13, 13, 10]
        assert_same_run(churned(HAND_INITIAL, plan),
                  _run(HAND_INITIAL, column_born(plan), "MRSF(P)"))

    def test_the_same_profile_object_added_twice(self):
        plan = ChurnPlan([ChurnEvent.add(2, HAND_LATE), ChurnEvent.add(4, HAND_LATE),
                          ChurnEvent.remove(6, 1)])
        result = churned(HAND_INITIAL, plan)
        assert result.report.total == 2 + 2 * len(HAND_LATE)
        assert result.extras["added_profiles"] == 2.0
        assert_same_run(result, _run(HAND_INITIAL, column_born(plan), "MRSF(P)"))

    def test_add_and_remove_in_one_chronon_in_both_orders(self):
        add, remove = ChurnEvent.add(4, HAND_LATE), ChurnEvent.remove(4, 1)
        legal = ChurnPlan([add, remove])
        assert_same_run(churned(HAND_INITIAL, legal),
                  _run(HAND_INITIAL, column_born(legal), "MRSF(P)"))
        _raises_everywhere(HAND_INITIAL, ChurnPlan([remove, add]),
                           "unknown profile id 1$")

    @pytest.mark.parametrize("profile_id", [-1, -7, 2, 1 << 40, 10 ** 30])
    def test_remove_of_an_id_nobody_holds(self, profile_id):
        plan = ChurnPlan([ChurnEvent.add(2, HAND_LATE),
                          ChurnEvent.remove(5, profile_id)])
        if profile_id == 10 ** 30:
            # Beyond the columns' integer type: still refused, and named
            # as planned where the events are at hand.
            with pytest.raises(ModelError,
                               match=f"unknown profile id {profile_id}$"):
                _run(HAND_INITIAL, plan, "MRSF(P)")
            with pytest.raises(ModelError, match="unknown profile id"):
                _run(HAND_INITIAL, column_born(plan), "MRSF(P)")
        else:
            _raises_everywhere(HAND_INITIAL, plan,
                               f"unknown profile id {profile_id}$")

    def test_a_chronon_beyond_int64_never_fires(self):
        plan = ChurnPlan([ChurnEvent.remove(10 ** 30, 5),
                          ChurnEvent.remove(3, 0)])
        assert_same_run(churned(HAND_INITIAL, plan),
                  churned(HAND_INITIAL, ChurnPlan([ChurnEvent.remove(3, 0)])))

    def test_an_id_is_unknown_until_its_add_applies(self):
        # Id 2 exists from clock 6 on: cancelling it at 5 is an error,
        # at 6 (planned before the add, applied after it) it is not.
        adds = [ChurnEvent.add(2, HAND_LATE), ChurnEvent.add(6, HAND_LATE)]
        _raises_everywhere(
            HAND_INITIAL, ChurnPlan([ChurnEvent.remove(5, 2)] + adds),
            "unknown profile id 2$")
        churned(HAND_INITIAL, ChurnPlan([ChurnEvent.remove(7, 2)] + adds))

    def test_the_first_offender_in_applied_order_raises(self):
        # The empty add is no offender: it holds id 1 from clock 5 on.
        empty = ChurnEvent.add(5, Profile([]))
        # Planned last, applied first.
        _raises_everywhere(
            HAND_INITIAL, ChurnPlan([empty, ChurnEvent.remove(4, 1),
                                     ChurnEvent.remove(3, 9)]),
            "unknown profile id 9$")
        _raises_everywhere(
            HAND_INITIAL, ChurnPlan([ChurnEvent.remove(6, 9), empty,
                                     ChurnEvent.remove(4, 1)]),
            "unknown profile id 1$")
        churned(HAND_INITIAL, ChurnPlan([ChurnEvent.remove(6, 1), empty]))
        # An offender that never fires offends nobody.
        churned(HAND_INITIAL, ChurnPlan([ChurnEvent.add(13, Profile([])),
                                     ChurnEvent.remove(40, 9)]))

    @pytest.mark.parametrize("chronon", [3, 40])
    def test_unknown_action(self, chronon):
        """Columns hold adds and removes: a look-alike event that is
        neither is refused when the plan becomes columns, whether or
        not it would fire."""
        class Event:
            action = "pause"

        Event.chronon = chronon
        with pytest.raises(ModelError, match="unknown churn action 'pause'"):
            _run(HAND_INITIAL, [ChurnEvent.remove(2, 0), Event()], "MRSF(P)")


# ----------------------------------------------------------------------
# The churn experiment's workload: column-born vs built object by object
# ----------------------------------------------------------------------

def object_built(config: ChurnConfig):
    """``build_churn_workload`` as the experiment built it before its
    scenario stayed columns: every client's profiles built object by
    object (``tests/workloads/oracle.py``), copied bare, planned event by
    event."""
    rng = np.random.default_rng(config.seed)
    epoch_ = Epoch(config.epoch_length)
    trace = PoissonUpdateModel(config.intensity, seed=config.seed).generate(
        range(config.num_resources), epoch_)
    horizon = int(config.join_spread * config.epoch_length)
    joins = sorted(int(rng.integers(0, horizon + 1))
                   for _ in range(config.num_clients))
    leave_at = (3 * config.epoch_length) // 4
    leavers = [bool(rng.random() < config.leave_probability)
               for _ in range(config.num_clients)]
    clients = []
    for index in range(config.num_clients):
        generated = oracle.profiles(GeneratorConfig(
            num_profiles=config.profiles_per_client,
            max_rank=config.max_rank, window=config.window,
            grouping="overlap", seed=config.seed + 101 * (index + 1)),
            trace, epoch_, list(range(config.num_resources)))
        clients.append([
            Profile([TInterval(eta.eis) for eta in profile],
                    name=f"client-{index}/{profile.name}")
            for profile in generated if len(profile)])
    initial = [profile for index, client in enumerate(clients)
               if joins[index] == 0 for profile in client]
    ids, next_id = [], 0
    for late in (False, True):
        for index, client in enumerate(clients):
            if (joins[index] > 0) == late:
                ids.append((index, range(next_id, next_id + len(client))))
                next_id += len(client)
    events = [ChurnEvent.add(joins[index], profile)
              for index, client in enumerate(clients) if joins[index] > 0
              for profile in client]
    events += [ChurnEvent.remove(leave_at, profile_id)
               for index, mine in sorted(ids)
               if leavers[index] and joins[index] <= leave_at
               for profile_id in mine]
    return ProfileSet(initial), ChurnPlan(events), epoch_


def _fields(plan) -> list:
    """Every event of ``plan``, field for field, profiles by value."""
    return [(e.chronon, e.action, e.profile_id, e.profile and (
        e.profile.name, [eta.eis for eta in e.profile])) for e in plan]


WORKLOAD = dict(epoch_length=60, num_resources=12, intensity=5.0,
                num_clients=14, profiles_per_client=4, window=8, budget=2,
                leave_probability=0.5)
LABELS = ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)")


class TestGeneratedWorkload:
    @pytest.mark.parametrize("seed", [29, 3, 60221])
    @pytest.mark.parametrize("join_spread", [0.9, 0.3, 0.0])
    def test_column_born_equals_object_built(self, seed, join_spread):
        config = ChurnConfig(seed=seed, join_spread=join_spread, **WORKLOAD)
        initial, plan, epoch_ = build_churn_workload(config)
        assert initial._profiles is None and plan._events is None
        want_initial, want_plan, want_epoch = object_built(config)
        assert epoch_ == want_epoch and plan == want_plan
        assert len(initial) == len(want_initial)
        for got, want in zip(initial.columns(), want_initial.columns()):
            assert np.array_equal(got, want)
        assert_same_lowering(lower_plan(initial, plan, epoch_),
                             lower_plan(want_initial, want_plan, epoch_))
        for label in LABELS:
            assert_same_run(
                _run(initial, plan, label, epoch_, BudgetVector(2)),
                _run(want_initial, want_plan, label, epoch_,
                     BudgetVector(2)))
        # Three runs later the scenario is still nothing but arrays.
        assert initial._profiles is None and plan._events is None
        # Its objects, once asked for, are the reference's.
        assert [profile.name for profile in initial] \
            == [profile.name for profile in want_initial]
        assert _fields(plan) == _fields(want_plan)

    EDGES = {
        # Clients whose generators emit profiles without t-intervals.
        "empty": dict(intensity=0.4, window=1),
        # More rank than resources: every rank is clamped to 2.
        "clamped": dict(num_resources=2, max_rank=4),
        "no_profiles": dict(profiles_per_client=0),
        "one_profile": dict(profiles_per_client=1),
        "all_at_zero": dict(join_spread=0.0),
        "all_leave": dict(leave_probability=1.0),
    }

    @pytest.mark.parametrize("edge", list(EDGES))
    def test_the_one_build_at_its_edges(self, edge):
        """Every client's draws go through one ``build_columns``; the
        per-client build it replaced is the referee, at the edges the
        shared build has to get right."""
        config = ChurnConfig(**{**WORKLOAD, "seed": 3, "join_spread": 0.5,
                                **self.EDGES[edge]})
        with _counting(AuctionWatchTemplate, "build_columns") as built:
            initial, plan, epoch_ = build_churn_workload(config)
        assert built.call_count == 1
        want_initial, want_plan, _e = object_built(config)
        assert plan == want_plan
        for got, want in zip(initial.columns(), want_initial.columns()):
            assert np.array_equal(got, want)
        assert _fields(plan) == _fields(want_plan)
        profiles = list(initial) + [event.profile for event in plan
                                    if event.action == "add"]
        removed = sum(event.action == "remove" for event in plan)
        offered = config.num_clients * config.profiles_per_client
        assert {
            "empty": 0 < len(profiles) < offered,
            "clamped": {profile.rank for profile in profiles} == {1, 2},
            "no_profiles": not profiles and not plan,
            "one_profile": 0 < len(profiles) <= offered,
            "all_at_zero": len(initial) == len(profiles) > 0 < removed,
            "all_leave": removed == len(profiles) > 0,
        }[edge]
        assert_same_run(_run(initial, plan, LABELS[0], epoch_, BudgetVector(2)),
                  _run(want_initial, want_plan, LABELS[0], epoch_,
                       BudgetVector(2)))

    def test_the_benchmarks_default_has_an_empty_initial_set(self):
        # Every client joins after clock 0 on most seeds: the empty
        # column-born set is the common input, not an edge.
        config = ChurnConfig(seed=29, join_spread=0.9, **WORKLOAD)
        initial, plan, epoch_ = build_churn_workload(config)
        assert len(initial) == 0 and initial.columns().ei_profile.size == 0
        assert not (plan.columns().chronon[plan.columns().is_add] == 0).any()
        lowered = lower_plan(initial, plan, epoch_)
        assert len(lowered.profiles) == lowered.added > 0
        assert (lowered.visible_from > 0).all()


# ----------------------------------------------------------------------
# Every policy: object-built == column-born == reused == the referees
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_workload():
    config = ChurnConfig(seed=29, join_spread=0.3, epoch_length=40,
                         num_resources=8, intensity=5.0, num_clients=8,
                         profiles_per_client=3, window=6, budget=2,
                         leave_probability=0.5)
    return build_churn_workload(config) + (object_built(config),)


_FAULTS = FaultSpec(failure_probability=0.3, timeout_probability=0.1,
                    seed=7)


def _fault_layer():
    return (FaultInjector(_FAULTS), RetryConfig(max_retries=2),
            CircuitBreaker(failure_threshold=2, cooldown=3))


class TestEveryPolicy:
    @pytest.mark.parametrize("label", ROW_POLICIES)
    def test_object_built_column_born_reused_and_referees(
            self, small_workload, label):
        initial, plan, epoch_, (want_initial, want_plan, _e) = small_workload
        assert len(initial) > 0
        budget = BudgetVector(2)
        # Object-built on the columns, and against the live proxy.
        reference = churned(want_initial, want_plan, label, budget, epoch_)
        fresh = ChurnPlan.from_columns(plan.columns())
        first = _run(initial, fresh, label, epoch_, budget)
        assert fresh._lowering.runs == 1
        again = _run(initial, fresh, label, epoch_, budget)
        assert fresh._lowering.runs == 2
        assert_same_run(first, reference)
        assert_same_run(again, reference)

    @pytest.mark.parametrize("label", ROW_POLICIES)
    def test_a_fault_lane_on_a_reused_lowering(self, small_workload, label):
        initial, plan, epoch_, (want_initial, want_plan, _e) = small_workload
        budget = BudgetVector(2)
        case = Case(want_initial, epoch_, label, budget, "recording",
                    _FAULTS, RetryConfig(max_retries=2), (2, 3), want_plan)
        expected = referee_run(case)
        assert expected["probes_failed"] > 0
        fresh = ChurnPlan.from_columns(plan.columns())
        for runs in (1, 2, 3):
            faults, retry, breaker = case.layer()
            result = _run(initial, fresh, label, epoch_, budget,
                          faults=faults, retry=retry, breaker=breaker)
            assert fresh._lowering.runs == runs
            assert_agree(observe(result, faults, breaker), expected)

    @pytest.mark.parametrize("cap", [1, 7, 64])
    def test_a_reused_lowering_of_several_windows(self, small_workload, cap):
        """A kept lowering of several windows keeps their index: the
        reused runs build none, and read it cut where the first run cut
        it."""
        initial, plan, epoch_, (want_initial, want_plan, _e) = small_workload
        budget = BudgetVector(2)
        fresh = ChurnPlan.from_columns(plan.columns())
        # The cap is read when the lowering is built: by the first run.
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            runs = [_run(initial, fresh, LABELS[0], epoch_, budget)]
        kept = fresh._lowering.columnar
        cuts = kept.windows_built
        assert cuts > 1
        runs += [_run(initial, fresh, label, epoch_, budget)
                 for label in LABELS[1:]]
        assert fresh._lowering.columnar is kept
        assert kept.windows_built == cuts
        for label, result in zip(LABELS, runs):
            assert_same_run(result,
                      churned(want_initial, want_plan, label, budget, epoch_))


# ----------------------------------------------------------------------
# The index a kept lowering keeps
# ----------------------------------------------------------------------

def _kept_and_fresh(case: Case, cap: int) -> None:
    """One kept lowering of ``case``'s plan serves each of :data:`LABELS`
    and the case's own policy in turn, under the case's budget and fault
    layer: it builds each window once, and every run equals the run on a
    lowering of its own, probe for probe."""
    columns = case.plan.columns()
    kept = ChurnPlan.from_columns(columns)
    cuts = None
    for label in dict.fromkeys(LABELS + (case.policy,)):
        seen = []
        for plan in (kept, ChurnPlan.from_columns(columns)):
            faults, retry, breaker = case.layer()
            with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
                result = _run(case.profiles, plan, label, case.epoch,
                              case.budget, faults=faults, retry=retry,
                              breaker=breaker)
            seen.append(observe(result, faults, breaker))
        assert seen[0] == seen[1], label
        built = kept._lowering.columnar.windows_built
        cuts = cuts or built
        assert built == cuts > 0, label


class TestKeptIndex:
    """A plan's kept lowering keeps its activity index; every run on it
    builds its own key columns."""

    @pytest.mark.parametrize("cap", [7, 64, columnar_module._WINDOW_ENTRIES])
    def test_one_lowering_serves_three_policies(self, small_workload, cap):
        initial, plan, epoch_, _want = small_workload
        _kept_and_fresh(Case(initial, epoch_, LABELS[0], BudgetVector(2),
                             plan=plan), cap)

    @pytest.mark.parametrize("name", [
        name for name in PINNED
        if name.startswith(("29/", "late/"))])
    def test_every_pinned_churn_case(self, name):
        case = PINNED[name]()
        assert case.plan is not None
        _kept_and_fresh(case, 7)


# ----------------------------------------------------------------------
# The lowering a plan keeps
# ----------------------------------------------------------------------

def _counting(target, name):
    """Patch ``target.name`` with a pass-through that counts calls."""
    return mock.patch.object(target, name, autospec=True,
                             side_effect=getattr(target, name))


class TestKeptLowering:
    PLAN = (ChurnEvent.add(5, HAND_LATE), ChurnEvent.remove(7, 0))

    def test_a_second_policy_builds_nothing(self):
        plan = ChurnPlan(self.PLAN)
        with _counting(ColumnarInstance, "__init__") as built:
            runs = [_run(HAND_INITIAL, plan, label) for label in LABELS]
        assert built.call_count == 1
        assert plan._lowering.runs == 3
        for label, result in zip(LABELS, runs):
            with _counting(ColumnarInstance, "__init__") as built:
                assert_same_run(result, _run(HAND_INITIAL, ChurnPlan(self.PLAN), label))
            assert built.call_count == 1

    def test_another_set_or_another_epoch_is_a_miss(self):
        plan = ChurnPlan(self.PLAN)
        twin = ProfileSet(list(HAND_INITIAL))
        with _counting(ColumnarInstance, "__init__") as built:
            first = _run(HAND_INITIAL, plan, "MRSF(P)")
            kept = plan._lowering
            # An equal set that is another object, then an equal epoch
            # that is another object, then a longer epoch.
            assert_same_run(first, _run(twin, plan, "MRSF(P)"))
            assert plan._lowering is not kept and built.call_count == 2
            kept = plan._lowering
            assert_same_run(first, _run(twin, plan, "MRSF(P)", Epoch(12)))
            assert plan._lowering is kept and built.call_count == 2
            longer = _run(twin, plan, "MRSF(P)", Epoch(14))
            assert plan._lowering is not kept and built.call_count == 3
        assert plan._lowering.epoch == Epoch(14)
        assert_same_run(longer,
                  _run(HAND_INITIAL, ChurnPlan(self.PLAN), "MRSF(P)", Epoch(14)))

    def test_an_unsupported_lowering_keeps_nothing(self):
        plan = ChurnPlan(self.PLAN)
        refusing = mock.patch.object(
            ColumnarInstance, "__init__", autospec=True,
            side_effect=BatchUnsupported("no columns today"))
        with refusing, pytest.raises(BatchUnsupported,
                                     match="no columns today"):
            _run(HAND_INITIAL, plan, "MRSF(P)")
        assert plan._lowering is None
        _run(HAND_INITIAL, plan, "MRSF(P)")
        assert plan._lowering.runs == 1

    def test_a_failed_plan_keeps_nothing(self):
        plan = ChurnPlan([ChurnEvent.remove(3, 4)])
        with pytest.raises(ModelError):
            _run(HAND_INITIAL, plan, "MRSF(P)")
        assert plan._lowering is None

    def test_run_two_sees_a_clean_fault_plane(self):
        """Draws are shared through the lowering; what a run *did* —
        the injector's trace, the breaker's state — is the run's own."""
        plan = ChurnPlan(self.PLAN)
        sides = [_fault_layer() for _ in range(3)]
        first, second = (
            _run(HAND_INITIAL, plan, "S-EDF(P)", faults=faults, retry=retry,
                 breaker=breaker) for faults, retry, breaker in sides[:2])
        assert plan._lowering.runs == 2 and first.probes_failed > 0
        assert_agree(observe(second, sides[1][0], sides[1][2]),
                     observe(first, sides[0][0], sides[0][2]))
        alone = _run(HAND_INITIAL, ChurnPlan(self.PLAN), "S-EDF(P)",
                     faults=sides[2][0], retry=sides[2][1],
                     breaker=sides[2][2])
        assert_agree(observe(second, sides[1][0], sides[1][2]),
                     observe(alone, sides[2][0], sides[2][2]))
        # A clean run after two faulty ones, on the same lowering.
        assert_same_run(_run(HAND_INITIAL, plan, "S-EDF(P)"),
                  _run(HAND_INITIAL, ChurnPlan(self.PLAN), "S-EDF(P)"))

    @pytest.mark.parametrize("born", [ChurnPlan, column_born])
    def test_pickling_carries_no_lowering(self, born):
        plan = born(ChurnPlan(self.PLAN))
        _run(HAND_INITIAL, plan, "MRSF(P)")
        assert plan._lowering is not None
        copy = pickle.loads(pickle.dumps(plan))
        assert copy._lowering is None
        assert copy == plan and hash(copy) == hash(plan)
        assert (copy._events is None) == (plan._events is None)
        assert_same_run(_run(HAND_INITIAL, copy, "MRSF(P)"),
                  _run(HAND_INITIAL, plan, "MRSF(P)"))

    def test_the_logger_says_lowered_then_reused(self, caplog):
        plan = ChurnPlan(self.PLAN)
        with caplog.at_level(logging.DEBUG, logger="repro.simulation.churn"):
            for label in LABELS:
                _run(HAND_INITIAL, plan, label)
        records = [record for record in caplog.records
                   if record.name == "repro.simulation.churn"]
        assert [record.levelno for record in records] == [logging.DEBUG] * 3
        lowered, *reused = (record.getMessage() for record in records)
        assert lowered.startswith("lowered the plan: 2 events fired, "
                                  "1 profiles added, 5 EIs, ")
        assert reused == [
            "reused the plan's lowering (served 1 runs before)",
            "reused the plan's lowering (served 2 runs before)"]


class TestObjectsAreWalkedOnce:
    def test_a_hand_built_set_and_plan_are_flattened_once(self):
        initial = ProfileSet(list(HAND_INITIAL))
        plan = ChurnPlan(TestKeptLowering.PLAN)
        with _counting(ProfileColumns, "of") as walks:
            _run(initial, plan, "MRSF(P)")
            # The set once, the plan's added profiles once.
            assert walks.call_count == 2
            # A miss lowers again — from the columns both now hold.
            _run(initial, plan, "MRSF(P)", Epoch(14))
            with pytest.raises(BatchUnsupported):
                _run(initial, plan, "LOUD-MRSF(P)")
            ColumnarInstance.build(initial, HAND_EPOCH)
            assert walks.call_count == 2


# ----------------------------------------------------------------------
# A one-shot plan is read once: there is no second reader
# ----------------------------------------------------------------------

#: ``TestKeptLowering.PLAN`` with the late t-interval needing one of its
#: two EIs: its closed first window no longer dooms it at birth.
_QUOTA_PLAN = (ChurnEvent.add(5, Profile([TInterval(HAND_LATE[0].eis,
                                                    need=1)])),
               ChurnEvent.remove(7, 0))


class TestOneShotPlans:
    """``run_churned`` reads its plan once and nothing falls back: what
    the columns cannot serve is refused, and what they can — a
    t-interval's ``need`` included — is served, whatever shape the plan
    came in."""

    @pytest.mark.parametrize("shape", [iter, lambda plan: (e for e in plan),
                                       list, ChurnPlan],
                             ids=["iterator", "generator", "list", "plan"])
    @pytest.mark.parametrize("label, events", [
        ("RANDOM(P)", TestKeptLowering.PLAN),
        ("LOUD-MRSF(P)", TestKeptLowering.PLAN),
        ("Q-MRSF(P)", _QUOTA_PLAN),
    ], ids=["random", "rowless", "state_factory"])
    def test_fallback_sees_the_whole_plan(self, label, events, shape):
        if label != "LOUD-MRSF(P)":
            result = _run(HAND_INITIAL, shape(events), label)
            if events is _QUOTA_PLAN:
                assert result.extras["doomed_at_birth"] == 0.0
            assert_agree(observe(result), referee_run(Case(
                HAND_INITIAL, HAND_EPOCH, label, BudgetVector(1),
                plan=ChurnPlan(events))))
            return
        with pytest.raises(BatchUnsupported,
                           match="no columnar scoring kind.*MonitoringProxy"):
            _run(HAND_INITIAL, shape(events), label)
