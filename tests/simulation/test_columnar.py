"""The array-native columnar lowering against its per-object oracle.

:class:`~repro.simulation.columnar.ColumnarInstance` builds every column
with NumPy from one flattening walk over the profile objects, and the
activity index one window at a time. The straightforward construction
it replaced — Python loops over every t-interval and EI, the whole
epoch's activity entries at once, a three-key ``lexsort`` for their
order, a fused ``searchsorted`` for M-EDF's ``started`` count, every
key column up front — lives on here as :func:`~tests.conformance.lowering.oracle`. Every public
attribute of the lowering must equal it in value *and* dtype, and so
must the *concatenation* of ``windows()`` (offsets applied) wherever
the cuts fall, and what the occupancy grid says about the index
without building it. A window holds the key columns of the score rows
(``ScoreKey``) it was built for and no others; a lowering its caller
hands to the runs builds its index once. The oracle takes the
same optional lifetimes the lowering does
(``tests/simulation/test_churn_columns.py`` feeds it churn plans);
without them every t-interval is there from the start and nobody
leaves.
"""

import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    BudgetVector,
    Epoch,
    Profile,
    ProfileColumns,
    ProfileSet,
)
from repro.experiments import ExperimentConfig, make_instance
from repro.faults import CircuitBreaker, FaultSpec, RetryConfig
from repro.online.registry import parse_policy_spec
from repro.simulation import batch as batch_module
from repro.simulation import columnar as columnar_module
from repro.simulation import run_online
from repro.simulation.batch import FaultLane, run_block
from repro.simulation.churn import ChurnEvent, lower_plan, run_churned
from repro.simulation.columnar import (
    BatchUnsupported,
    ColumnarInstance,
    _chronon_order,
)
from repro.simulation.shard import federated_run

from tests.conformance.cases import PINNED, ROWS
from tests.conformance.lowering import (
    assert_same_columns,
    assert_same_lowering,
    oracle,
    stitched,
)
from tests.properties.strategies import epoch, eta, profile_sets




class TestEdgeCases:
    def test_empty_profile_set(self):
        col = assert_same_lowering(ProfileSet(), Epoch(8))
        assert (col.S, col.E, col.n_max, col.rid_space) == (0, 0, 1, 1)

    def test_a_lowering_holds_one_profile_set(self):
        profiles = ProfileSet([Profile([eta((0, 1, 3))])])
        with pytest.raises(TypeError, match="one ProfileSet, got list"):
            ColumnarInstance.build([profiles, profiles], Epoch(8))

    def test_profile_without_tintervals(self):
        profiles = ProfileSet([
            Profile([]),
            Profile([eta((0, 2, 4), (1, 3, 3)), eta((1, 1, 2))]),
            Profile([]),
            Profile([eta((2, 2, 6))]),
        ])
        col = assert_same_lowering(profiles, Epoch(8))
        assert col.profile_totals == {0: 0, 1: 2, 2: 0, 3: 1}
        assert col.st_rank.tolist() == [2, 2, 1]

    def test_ei_opening_past_the_epoch(self):
        profiles = ProfileSet([
            Profile([eta((0, 12, 15))]),
            Profile([eta((1, 2, 3), (0, 11, 11)), eta((1, 9, 14))]),
        ])
        col = assert_same_lowering(profiles, Epoch(10))
        # The late-only t-interval arrives clamped to the last chronon
        # and contributes no activity entry.
        late = int(np.nonzero(col.st_profile == 0)[0][0])
        assert col.st_arrival[late] == 10
        assert not np.any(stitched(col).ps_act == late)
        assert col.act_chronons.tolist() == [2, 3, 9, 10]

    def test_rank_one_only(self):
        profiles = ProfileSet([
            Profile([eta((r, s, s + r)) for s in (4, 1, 4)])
            for r in range(3)])
        col = assert_same_lowering(profiles, Epoch(6))
        assert col.rank_totals == {1: 9}
        medf = ROWS["M-EDF"]
        whole = stitched(col, [medf])
        # M-EDF's static word is the state's deadline sum; the run takes
        # ``T`` off per started EI — here exactly the entry's own.
        assert np.array_equal(whole.hi_static[medf] >> col.score_shift,
                              col.init_sum[whole.ps_act]
                              + col.score_offset(medf))
        assert (oracle(profiles, Epoch(6)).started == 1).all()
        assert np.array_equal(np.sort(col.op_state), col.ei_state)
        assert col.op_indptr.tolist() == [0, 0, 3, 3, 3, 9, 9, 9]

    def test_fused_activity_key_beyond_16_bits(self):
        # (window chronons) * resources > 2**16, beyond the 16-bit keys a
        # radix sort would take: the activity sort keeps its order on
        # the wide key too.
        profiles = ProfileSet([
            Profile([eta((900, 3, 40), (5, 1, 70)), eta((5, 2, 2))]),
            Profile([eta((900, 1, 64))]),
        ])
        assert_same_lowering(profiles, Epoch(80))

    def test_wide_key_raises_batch_unsupported(self):
        profiles = ProfileSet([Profile([eta((0, 1, 1 << 40))])])
        with pytest.raises(BatchUnsupported):
            oracle(profiles, Epoch(4))
        with pytest.raises(BatchUnsupported):
            ColumnarInstance.build(profiles, Epoch(4))

    def test_sparse_resource_ids_raise_batch_unsupported(self):
        # No dense (chronon x resource id) grid for ids this sparse; the
        # caller falls back to the fast engine instead of allocating it.
        profiles = ProfileSet([Profile([eta((1 << 26, 1, 2))])])
        with pytest.raises(BatchUnsupported, match="too sparse"):
            ColumnarInstance.build(profiles, Epoch(4))


class TestAgainstOracle:
    @given(profiles=profile_sets(max_profiles=4, quotas=True))
    @settings(max_examples=60, deadline=None)
    def test_single_instance(self, profiles):
        assert_same_lowering(profiles, epoch())


class TestChrononSorts:
    """The constructor sorts chronon keys as ``uint16`` where they fit —
    a radix sort — and must give the ``int64`` stable permutation."""

    @pytest.mark.parametrize("bound", [0, 300, (1 << 16) - 1, 1 << 16,
                                       1 << 20])
    def test_the_permutation_is_the_int64_one(self, bound):
        keys = np.random.default_rng(bound).integers(0, bound + 1, 5000)
        assert np.array_equal(_chronon_order(keys, bound),
                              np.argsort(keys, kind="stable"))

    def test_an_epoch_above_16_bits_is_not_cast(self):
        # Chronons past 2**16 would wrap below the early ones if cast:
        # the late state would arrive first, its EI open first and
        # expire first.
        last = (1 << 16) + 40
        profiles = ProfileSet([
            Profile([eta((0, last - 36, last - 31))]),
            Profile([eta((1, 10, 12), (0, 11, 13))]),
        ])
        col = assert_same_lowering(profiles, Epoch(last))
        first, until = col.visibility()
        ever = np.flatnonzero(first <= until)
        assert np.array_equal(col._by_start,
                              ever[np.argsort(first[ever], kind="stable")])
        assert col.st_arrival.tolist() == [10, last - 36]
        assert col.xe_chronons.tolist() == [13, 14, last - 30]


def _engines_agree(profiles, epoch_, caplog, cause):
    """``run_online`` falls back to the reference simulator, says why,
    and gives the reference's result."""
    policy, preemptive = parse_policy_spec("M-EDF(P)")
    with caplog.at_level(logging.INFO, logger="repro.simulation.proxy"):
        got = run_online(profiles, epoch_, BudgetVector(1), policy,
                         preemptive=preemptive)
    assert cause in caplog.text
    want = run_online(profiles, epoch_, BudgetVector(1), policy,
                      preemptive=preemptive, engine="reference")
    assert list(got.schedule.probes()) == list(want.schedule.probes())
    assert got.report == want.report
    assert got.expired == want.expired


class TestColumnWidths:
    """The EI-row columns arrive int32 and the lowering keeps every
    column int32 that a bound holds; a set whose ids or chronons pass
    int32 has no columns and is refused, never lowered from a wrapped
    value."""

    #: The widest finish this instance's key layout takes: score 29 +
    #: finish 28 + pool size 2 + start 2 + resource id 1 = 62 bits.
    BOUND = (1 << 28) - 1

    @staticmethod
    def finishing_at(finish: int) -> ProfileSet:
        return ProfileSet([Profile([eta((0, 1, finish), (1, 2, 5))]),
                           Profile([eta((1, 3, finish))])])

    @staticmethod
    def watching(rid: int) -> ProfileSet:
        return ProfileSet([Profile([eta((rid, 1, 3), (0, 2, 4))]),
                           Profile([eta((0, 1, 2))])])

    def test_a_finish_past_int32_is_refused_by_the_key_layout(self, caplog):
        """Refused before the key layout is read: the set has no
        columns."""
        profiles = self.finishing_at(1 << 31)
        with pytest.raises(BatchUnsupported, match="ei_finish .* int32"):
            ColumnarInstance.build(profiles, Epoch(6))
        _engines_agree(profiles, Epoch(6), caplog, "ei_finish")

    def test_a_resource_id_past_int32_is_refused_by_the_grid(self, caplog):
        """Refused before the grid is read: the set has no columns."""
        profiles = self.watching(1 << 31)
        with pytest.raises(BatchUnsupported, match="ei_resource .* int32"):
            ColumnarInstance.build(profiles, Epoch(6))
        _engines_agree(profiles, Epoch(6), caplog, "ei_resource")

    def test_a_sparse_resource_id_inside_int32_is_refused_by_the_grid(
            self, caplog):
        profiles = self.watching(1 << 30)
        with pytest.raises(BatchUnsupported, match="too sparse"):
            ColumnarInstance.build(profiles, Epoch(6))
        _engines_agree(profiles, Epoch(6), caplog, "too sparse")

    def test_deadlines_summing_past_int32_are_refused(self):
        """``init_sum`` is summed in int64 and narrowed under a checked
        bound: 2**16 EIs finishing at 2**15 sum to 2**31."""
        E, K = 1 << 16, 1 << 15
        zeros = np.zeros(E, dtype=np.int32)
        at_end = np.full(E, K, dtype=np.int32)
        profiles = ProfileSet.from_columns(ProfileColumns(
            ("p",), zeros, zeros, np.arange(E, dtype=np.int32) % 1024,
            at_end, at_end, np.full(E, E, dtype=np.int32)))
        with pytest.raises(BatchUnsupported, match=f"sum to {1 << 31}"):
            ColumnarInstance.build(profiles, Epoch(K))

    @pytest.mark.parametrize("column, profiles", [
        ("ei_finish", finishing_at(1 << 31)),
        ("ei_resource", watching(1 << 31)),
    ])
    @pytest.mark.parametrize("added", [False, True])
    def test_a_churned_run_refuses_a_set_without_columns(
            self, column, profiles, added):
        """Whether the set is the initial one or a plan adds it."""
        plain = self.finishing_at(5)
        initial, plan = (plain, [ChurnEvent.add(2, profiles[0])]) \
            if added else (profiles, [ChurnEvent.remove(3, 1)])
        policy, preemptive = parse_policy_spec("M-EDF(P)")
        with pytest.raises(BatchUnsupported, match=column):
            lower_plan(initial, plan, Epoch(6))
        with pytest.raises(BatchUnsupported, match=column):
            run_churned(initial, Epoch(6), BudgetVector(1), policy, plan,
                        preemptive=preemptive)

    def test_a_finish_just_inside_the_bound_lowers_exactly(self):
        with pytest.raises(BatchUnsupported, match="packed selection key"):
            ColumnarInstance.build(self.finishing_at(self.BOUND + 1),
                                   Epoch(6))
        col = assert_same_lowering(self.finishing_at(self.BOUND), Epoch(6))
        assert col.ei_finish.dtype == np.int32
        assert col.ei_finish.tolist() == [self.BOUND, 5, self.BOUND]
        assert col.init_sum.tolist() == [self.BOUND + 5, self.BOUND]

    #: The contract-scale catalog instance of the end-to-end benchmark.
    CATALOG = ExperimentConfig(
        epoch_length=100, num_resources=500, num_profiles=5000,
        intensity=20, budget=16, window=5, seed=20080407)

    def test_the_lowering_memory_budget(self):
        """Per EI, at most 24 B of EI-row columns (six int32), 62 B held
        by the lowering and an 80 B build peak (measured: 24, 59.5 and
        77.4, the grid's; 86.8 while the EI gather was built in int64
        beside the state order's temporaries; with int64 EI rows the
        columns were 48 B and the lowering held 75.6 B and peaked at
        96.6 B, with int64 state columns 111 B and 182 B): a widened
        column shows as megabytes at this scale, so it fails here
        first."""
        _trace, profiles = make_instance(self.CATALOG, 0)
        columns = profiles.columns()
        assert sum(column.nbytes for column in columns[1:]) <= \
            24 * columns.ei_start.size
        tracemalloc.start()
        try:
            col = ColumnarInstance.build(profiles, self.CATALOG.epoch)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert col.E > 100_000
        assert col.nbytes == sum(value.nbytes for value in vars(col).values()
                                 if isinstance(value, np.ndarray))
        assert col.nbytes <= 62 * col.E
        assert peak <= 80 * col.E


class TestLifetimeArguments:
    PROFILES = ProfileSet([Profile([eta((0, 1, 3)), eta((1, 2, 5))]),
                           Profile([eta((0, 4, 6))])])

    @pytest.mark.parametrize("name", ["visible_from", "gone_from"])
    @pytest.mark.parametrize("value, match", [
        (np.array([0]), "one chronon per t-interval"),
        (np.zeros((3, 1), dtype=np.int64), "one chronon per t-interval"),
        (np.array([0.0, 1.0, 2.0]), "integer vector"),
        (np.array([True, False, True]), "integer vector"),
        (np.array([0, -4, 2]), ">= 0, got -4"),
    ])
    def test_a_bad_lifetime_is_refused_by_name(self, name, value, match):
        with pytest.raises(ValueError, match=match) as refused:
            ColumnarInstance.build(self.PROFILES, Epoch(8), **{name: value})
        assert str(refused.value).startswith(name)

    def test_a_lifetime_past_the_epoch_reads_as_the_epoch_end(self):
        far = np.array([0, 1 << 40, 3], dtype=np.uint64)
        col = assert_same_lowering(self.PROFILES, Epoch(8), far, far[::-1])
        end = ColumnarInstance.build(self.PROFILES, Epoch(8), [0, 9, 3],
                                     [3, 9, 0])
        for name in ("st_arrival", "st_visible", "st_gone"):
            assert np.array_equal(getattr(col, name), getattr(end, name))


#: A generated instance small enough for one window at the real cap.
_SMALL = ExperimentConfig(
    epoch_length=40, num_resources=10, num_profiles=14, intensity=5.0,
    window=6, budget=2, repetitions=1, grouping="overlap", seed=77)


class TestPerKindWindows:
    """A window builds its layout and the key columns its block's score
    rows read, each equal to the oracle's; ``kinds`` names the policies
    whose rows a block holds."""

    @pytest.fixture(scope="class")
    def small(self):
        _trace, profiles = make_instance(_SMALL, 0)
        return profiles, oracle(profiles, _SMALL.epoch)

    @pytest.mark.parametrize("kinds", [
        (), ("MRSF",), ("S-EDF",), ("FCFS", "LFF"),
        ("ANTI-MRSF", "STATICRANK", "MRSF"), ("COVERAGE",), ("M-EDF",),
        ("M-EDF", "COVERAGE", "S-EDF")])
    @pytest.mark.parametrize("cap", [7, columnar_module._WINDOW_ENTRIES])
    def test_a_window_holds_what_its_kinds_read(self, small, kinds, cap):
        profiles, want = small
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            col = ColumnarInstance.build(profiles, _SMALL.epoch)
        # stitched() holds every window to exactly the rows' columns:
        # one word per row, M-EDF's too, and nothing else.
        keys = [ROWS[name] for name in kinds]
        whole = stitched(col, keys)
        assert whole.windows == (1 if cap > 7 else col.windows_built) > 0
        assert_same_columns(whole, want, keys, cap)

    def test_a_kept_index_serves_every_kind(self, small):
        """A lowering handed to an S-EDF block, an M-EDF block and two
        federated runs builds its index once; each run is the
        reference's, and its windows hold its own row's key column and
        no other."""
        profiles, want = small
        epoch_, budget = _SMALL.epoch, _SMALL.budget_vector
        col = ColumnarInstance.build(profiles, epoch_)
        sedf, medf, mrsf = ROWS["S-EDF"], ROWS["M-EDF"], ROWS["MRSF"]
        steps = (("S-EDF(NP)", "block", sedf), ("M-EDF(P)", "block", medf),
                 ("M-EDF(NP)", "federated", medf),
                 ("MRSF(P)", "federated", mrsf))
        build = columnar_module.ActivityWindow.__init__
        rows = []

        def spy(window, *args):
            build(window, *args)
            rows.append(set(window.hi_static))

        for label, how, key in steps:
            policy, preemptive = parse_policy_spec(label)
            rows.clear()
            with mock.patch.object(columnar_module.ActivityWindow,
                                   "__init__", spy):
                if how == "block":
                    (got,) = run_block(profiles, epoch_,
                                       [(policy, preemptive, budget)],
                                       columnar=col)
                else:
                    got = federated_run(profiles, epoch_, budget, policy,
                                        preemptive=preemptive, shards=2,
                                        columnar=col).result
            expected = run_online(profiles, epoch_, budget, policy,
                                  preemptive=preemptive, engine="reference")
            assert list(got.schedule.probes()) == \
                list(expected.schedule.probes()), label
            assert got.report == expected.report, label
            assert rows == [{key}] and col.windows_built == 1, label
        assert_same_columns(stitched(col, (sedf, medf, mrsf)), want,
                             (sedf, medf, mrsf), 0)
        assert col.windows_built == 1


class TestRunningStarted:
    """M-EDF's ``started`` is one count per state that the chronon loop
    adds the opening CSR into: at every chronon it scores, each entry's
    state count is the oracle's per-entry count — EIs that opened before
    their state registered, or closed before it, included."""

    @pytest.mark.parametrize("name", [
        "123/reliable/K1/M-EDF(P)", "29/reliable/M-EDF(P)",
        "77/quota/reliable/M-EDF(P)", "late/reliable/M-EDF(P)"])
    def test_the_count_is_the_oracles_at_every_scored_chronon(self, name):
        case = PINNED[name]()
        profiles, visible_from, gone_from = case.profiles, None, None
        if case.plan is not None:
            profiles, visible_from, gone_from, *_ = lower_plan(
                case.profiles, case.plan, case.epoch)
        want = oracle(profiles, case.epoch, visible_from, gone_from)
        col = ColumnarInstance.build(profiles, case.epoch, visible_from,
                                     gone_from)
        seen = {}
        score = batch_module._candidate_keys

        def spy(hi, key_rows, col_, win, alo, ahi, ps, grp_of, T, *rest):
            started = rest[-1]
            assert np.array_equal(ps, win.ps_act[alo:ahi])
            seen[T] = started[ps].copy()
            score(hi, key_rows, col_, win, alo, ahi, ps, grp_of, T, *rest)

        policy, preemptive = case.make_policy()
        with mock.patch.object(batch_module, "_candidate_keys", spy):
            run_block(profiles, case.epoch,
                      [(policy, preemptive, BudgetVector(1))], columnar=col)
        assert len(seen) > 1
        chronons = want.act_chronons.tolist()
        for T, started in seen.items():
            at = chronons.index(T)
            lo, hi = want.act_indptr[at:at + 2]
            assert np.array_equal(started, want.started[lo:hi]), T


def test_a_block_holds_one_instance():
    """Lane instance index 0 (or none) is the block's instance; any
    other index has nothing to name."""
    profiles = ProfileSet([Profile([eta((0, 1, 3), (1, 2, 4))])])
    policy, preemptive = parse_policy_spec("S-EDF(P)")
    lane = (policy, preemptive, BudgetVector(1))
    bare, indexed, with_fault = run_block(
        profiles, Epoch(6), [lane, lane + (0,), lane + (0, None)])
    assert bare.gc == indexed.gc == with_fault.gc == 1.0
    for inst in (1, -1):
        with pytest.raises(ValueError, match=f"names instance {inst}, but "
                                             "a block holds one instance"):
            run_block(profiles, Epoch(6), [lane, lane + (inst,)])


@pytest.mark.parametrize("leavers", ["nobody", "one", "many"])
def test_block_epilogue_is_the_one_lane_epilogues(leavers):
    """The schedule epilogue runs once per block: every lane of a
    three-lane churned block (one of them faulty) reports what it
    reports as a block of its own — also when a single t-interval
    leaves, which is all it takes to ask who was dropped."""
    config = ExperimentConfig(
        epoch_length=40, num_resources=10, num_profiles=14, intensity=5.0,
        window=6, budget=2, repetitions=1, grouping="overlap", seed=77)
    _trace, profiles = make_instance(config, 0)
    last = config.epoch.last
    total = profiles.total_tintervals
    rng = np.random.default_rng(3)
    visible = np.where(rng.random(total) < 0.3,
                       rng.integers(1, last // 2, total), 0)
    gone = np.full(total, last + 1, dtype=np.int64)
    if leavers == "one":
        gone[total // 2] = 0
    elif leavers == "many":
        some = rng.random(total) < 0.4
        gone[some] = np.maximum(visible, rng.integers(0, last, total))[some]
    col = ColumnarInstance.build(profiles, config.epoch, visible, gone)
    assert (col.st_gone <= last).any() == (leavers != "nobody")

    def lanes():
        fault = FaultLane(FaultSpec(failure_probability=0.3, seed=9),
                          RetryConfig(1),
                          CircuitBreaker(failure_threshold=2, cooldown=3))
        return [parse_policy_spec(spec) + (BudgetVector(2), 0, layer)
                for spec, layer in (("MRSF(P)", None), ("S-EDF(NP)", fault),
                                    ("M-EDF(P)", None))]

    block = run_block(profiles, config.epoch, lanes(), columnar=col)
    alone = [run_block(profiles, config.epoch, [lane], columnar=col)[0]
             for lane in lanes()]
    assert block[1].probes_failed > 0
    for together, single in zip(block, alone):
        assert list(together.schedule.probes()) == \
            list(single.schedule.probes())
        assert together.report == single.report
        assert together.report.per_profile == single.report.per_profile
        assert together.report.per_rank == single.report.per_rank
        assert (together.expired, together.extras["dropped"]) == \
            (single.expired, single.extras["dropped"])
        assert (together.report.captured + together.expired
                + together.extras["dropped"]) == total
    dropped = [result.extras["dropped"] for result in block]
    if leavers == "nobody":
        assert dropped == [0.0, 0.0, 0.0]
    elif leavers == "one":
        # Cancelled at clock 0: nothing of it could have been missed yet.
        assert dropped == [1.0, 1.0, 1.0]
    else:
        assert min(dropped) > 1.0 and len({r.expired for r in block}) > 1


def test_medf_federated_run_builds_no_static_key_column():
    profiles = ProfileSet([
        Profile([eta((0, 1, 3), (1, 2, 4)), eta((2, 2, 2))]),
        Profile([eta((1, 1, 5)), eta((0, 3, 6), (2, 4, 6))]),
    ])
    policy, preemptive = parse_policy_spec("M-EDF(P)")
    columnar = ColumnarInstance.build(profiles, Epoch(6))
    built = []
    build = columnar_module.ActivityWindow.__init__

    def spy(window, *args):
        build(window, *args)
        built.append(window)

    with mock.patch.object(columnar_module.ActivityWindow, "__init__",
                           spy):
        fed = federated_run(profiles, Epoch(6), BudgetVector(1), policy,
                            preemptive=preemptive, shards=2,
                            columnar=columnar)
    (window,) = built
    assert fed.result.probes_used > 0
    # M-EDF's row is its one key column: no static word of another row.
    assert set(window.hi_static) == {ROWS["M-EDF"]}
    # A prebuilt lowering costs a run its windows — and, once its index
    # is kept, only the run's own columns: no window is built again.
    assert fed.result.extras["lowering_windows"] == 1.0
    first = columnar.window_seconds
    again = federated_run(profiles, Epoch(6), BudgetVector(1), policy,
                          preemptive=preemptive, shards=2,
                          columnar=columnar)
    assert columnar.window_seconds > first > 0.0
    assert again.result.extras["lowering_windows"] == 0.0
    assert columnar.windows_built == 1
