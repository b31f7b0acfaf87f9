"""The array-native columnar lowering against its per-object oracle.

:class:`~repro.simulation.columnar.ColumnarInstance` builds every column
with NumPy from one flattening walk over the profile objects, and the
activity index one window at a time. The straightforward construction
it replaced — Python loops over every t-interval and EI, the whole
epoch's activity entries at once, a three-key ``lexsort`` for their
order, a fused ``searchsorted`` for M-EDF's ``started`` count, every
key column up front — lives on here as :func:`oracle`. Every public
attribute of the lowering must equal it in value *and* dtype, and so
must the *concatenation* of ``windows()`` (offsets applied) wherever
the cuts fall, and what the occupancy grid says about the index
without building it. A window holds the key columns of the score rows
(``ScoreKey``) it was built for and no others. The oracle takes the
same optional lifetimes the lowering does
(``tests/simulation/test_churn_columns.py`` feeds it churn plans);
without them every t-interval is there from the start and nobody
leaves.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.experiments import ExperimentConfig, make_instance
from repro.faults import CircuitBreaker, FaultSpec, RetryConfig
from repro.online import ScoreKey
from repro.online.registry import parse_policy_spec
from repro.simulation import columnar as columnar_module
from repro.simulation import run_online
from repro.simulation.batch import FaultLane, run_block
from repro.simulation.columnar import (
    _MAX_KEY_BITS,
    BatchUnsupported,
    ColumnarInstance,
    _bits,
    _chronon_order,
)
from repro.simulation.shard import federated_run

from tests.online.test_score_key import ROWS
from tests.properties.strategies import epoch, profile_sets


def _row_range(key: ScoreKey, ranges) -> tuple[int, int]:
    """The row's lowest and highest score, by interval arithmetic over
    the feature ranges (``chronon`` and ``const`` have none)."""
    ends = [(getattr(key, name) * lo, getattr(key, name) * hi)
            for name, (lo, hi) in ranges.items()]
    return sum(map(min, ends)), sum(map(max, ends))


def oracle(profiles, epoch, visible_from=None,
           gone_from=None) -> SimpleNamespace:
    """The per-object lowering: one Python step per t-interval and EI.

    ``visible_from`` / ``gone_from`` hold one chronon per t-interval in
    creation order, as for the lowering."""
    o = SimpleNamespace()
    last = epoch.last
    total_etas = sum(len(profile) for profile in profiles)
    visible = [0] * total_etas if visible_from is None \
        else [int(chronon) for chronon in visible_from]
    gone = [last + 1] * total_etas if gone_from is None \
        else [int(chronon) for chronon in gone_from]

    # States in seq order: the initial set by (clamped arrival, creation
    # order), then the mid-run registrations in creation order.
    st_arrival, st_rank, st_profile = [], [], []
    st_size, st_tid, etas = [], [], []
    rid_max = 0
    for profile in profiles:
        rank = profile.rank
        for eta in profile:
            st_arrival.append(min(
                max(eta.earliest_start, visible[len(etas)]), last))
            st_rank.append(rank)
            st_profile.append(eta.profile_id)
            st_size.append(len(eta))
            st_tid.append(eta.tinterval_id)
            etas.append(eta)
            for ei in eta:
                rid_max = max(rid_max, ei.resource_id)
    o.rid_space = rid_max + 1
    order = sorted(range(len(etas)),
                   key=lambda i: (visible[i] > 0,
                                  0 if visible[i] else st_arrival[i]))
    o.S = len(etas)

    def seq_column(values):
        return np.array([values[i] for i in order], dtype=np.int64)

    o.st_arrival = seq_column(st_arrival)
    o.st_visible = seq_column(visible)
    o.st_gone = seq_column(gone)
    o.st_rank = seq_column(st_rank)
    o.st_profile = seq_column(st_profile)
    o.st_size = seq_column(st_size)
    o.st_tid = seq_column(st_tid)

    # EIs state-major, within a state in ei_id order. An EI can be a
    # candidate from the chronon after its t-interval registered (the
    # fast engine's ``_queue_events``: visible from ``max(start,
    # arrival)``, nothing at all if it closed before) up to the clock
    # its t-interval was cancelled at.
    ei_res, ei_start, ei_finish, ei_state = [], [], [], []
    first, until = [], []
    for seq, i in enumerate(order):
        for ei in etas[i]:
            ei_res.append(ei.resource_id)
            ei_start.append(ei.start)
            ei_finish.append(ei.finish)
            ei_state.append(seq)
            first.append(max(ei.start, visible[i]))
            until.append(min(ei.finish, last, gone[i]))
    first = np.array(first, dtype=np.int64)
    until = np.array(until, dtype=np.int64)
    o.visibility = (first, until)
    o.E = len(ei_res)
    o.ei_res = np.array(ei_res, dtype=np.int64)
    o.ei_start = np.array(ei_start, dtype=np.int64)
    o.ei_finish = np.array(ei_finish, dtype=np.int64)
    o.ei_state = np.array(ei_state, dtype=np.int64)
    o.init_sum = np.zeros(o.S, dtype=np.int64)
    np.add.at(o.init_sum, o.ei_state, o.ei_finish)

    # Activity CSR: chronon-major, then resource, then EI index.
    width = np.maximum(until - first + 1, 0)
    total = int(width.sum())
    act_e = np.repeat(np.arange(o.E, dtype=np.int64), width)
    cum = np.concatenate(([0], np.cumsum(width)))
    offset = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], width)
    act_T = np.repeat(first, width) + offset
    act_res = o.ei_res[act_e]
    by_key = np.lexsort((act_e, act_res, act_T))
    o.act_e = act_e[by_key]
    act_T = act_T[by_key]
    act_res = act_res[by_key]
    o.ps_act = o.ei_state[o.act_e]

    new_t = np.empty(total, dtype=bool)
    new_g = np.empty(total, dtype=bool)
    if total:
        new_t[0] = True
        new_t[1:] = act_T[1:] != act_T[:-1]
        new_g[0] = True
        new_g[1:] = new_t[1:] | (act_res[1:] != act_res[:-1])
    t_starts = np.nonzero(new_t)[0]
    o.act_chronons = act_T[t_starts]
    o.act_indptr = np.concatenate((t_starts, [total])).astype(np.int64)
    o.grp_starts = np.nonzero(new_g)[0].astype(np.int64)
    o.grp_rid = act_res[o.grp_starts]
    o.grp_indptr = np.searchsorted(
        o.grp_starts, o.act_indptr).astype(np.int64)
    if total:
        g_global = np.cumsum(new_g) - 1
        spans = np.diff(o.act_indptr)
        o.grp_of = (g_global - np.repeat(o.grp_indptr[:-1], spans)
                    ).astype(np.int64)
        grp_sizes = np.diff(np.concatenate((o.grp_starts, [total])))
        o.n_max = int(grp_sizes.max())
    else:
        o.grp_of = np.zeros(0, dtype=np.int64)
        o.n_max = 1
    # started: per-state prefix count via one fused searchsorted.
    if o.E:
        stride = int(max(o.ei_start.max(),
                         act_T.max() if total else 0)) + 2
        fused = np.sort(o.ei_state * stride + o.ei_start)
        state_ei_ptr = np.searchsorted(
            o.ei_state, np.arange(o.S, dtype=np.int64))
        started = (
            np.searchsorted(fused, o.ps_act * stride + act_T, side="right")
            - state_ei_ptr[o.ps_act]).astype(np.int64)
    else:
        started = np.zeros(0, dtype=np.int64)

    # Expiry events.
    xe = np.nonzero(o.ei_finish < last)[0]
    xe_T = o.ei_finish[xe] + 1
    by_T = np.argsort(xe_T, kind="stable")
    xe = xe[by_T]
    xe_T = xe_T[by_T]
    bounds = np.nonzero(np.concatenate(
        ([True], xe_T[1:] != xe_T[:-1])))[0] if xe.size else \
        np.zeros(0, dtype=np.int64)
    o.xe_chronons = xe_T[bounds]
    o.xe_indptr = np.concatenate((bounds, [xe.size])).astype(np.int64)
    o.xe_e = xe
    xe_state = o.ei_state[xe]
    if xe.size:
        seg = np.concatenate(
            ([True], (xe_T[1:] != xe_T[:-1])
             | (xe_state[1:] != xe_state[:-1])))
        o.xg_starts = np.nonzero(seg)[0].astype(np.int64)
        o.xg_state = xe_state[o.xg_starts]
    else:
        o.xg_starts = np.zeros(0, dtype=np.int64)
        o.xg_state = np.zeros(0, dtype=np.int64)
    o.xg_indptr = np.searchsorted(
        o.xg_starts, o.xe_indptr).astype(np.int64)

    # Packed-key layout and every registered row's key column, eagerly.
    start_max = int(o.ei_start.max()) if o.E else 1
    finish_max = int(o.ei_finish.max()) if o.E else 1
    rank_max = int(o.st_rank.max()) if o.S else 1
    size_max = int(o.st_size.max()) if o.S else 1
    res_max = int(o.ei_res.max()) if o.E else 0
    o.feature_ranges = {
        "finish": (0, finish_max),
        "start": (0, start_max),
        "rank": (0, rank_max),
        "captured": (0, size_max),
        "deadlines": (-last * size_max, int(o.init_sum.max()) if o.S else 1),
        "pool": (0, o.n_max),
    }
    score_max = max(hi - lo for lo, hi in (
        _row_range(key, o.feature_ranges) for key in ROWS.values()))
    o.start_bits = _bits(start_max)
    o.finish_bits = _bits(finish_max)
    o.score_bits = _bits(score_max)
    o.n_bits = _bits(o.n_max)
    o.rid_bits = _bits(res_max)
    # One layout, low to high: rid | start | n_max - n | finish | score;
    # a candidate key leaves the rid and pool-size fields zero.
    o.start_shift = o.rid_bits
    o.n_shift = o.start_shift + o.start_bits
    o.finish_shift = o.n_shift + o.n_bits
    o.score_shift = o.finish_shift + o.finish_bits
    if o.score_shift + o.score_bits > _MAX_KEY_BITS:
        raise BatchUnsupported("oracle: packed key too wide")
    fin = o.ei_finish[o.act_e]
    start = o.ei_start[o.act_e]
    finstart = (fin << o.finish_shift) | (start << o.start_shift)
    # A lane that captured nothing: M-EDF's sum over every sibling, less
    # T for the started ones.
    deadlines = o.init_sum[o.ps_act] - act_T * started
    rank = o.st_rank[o.ps_act]
    o.hi_static = {}
    for key in ROWS.values():
        score = (key.finish * fin + key.start * start + key.rank * rank
                 + key.deadlines * deadlines
                 - _row_range(key, o.feature_ranges)[0])
        o.hi_static[key] = (score << o.score_shift) + finstart
    o.fin_act = fin

    o.profile_totals = {profile.profile_id: len(profile)
                        for profile in profiles}
    o.rank_totals = {}
    for size in o.st_size.tolist():
        o.rank_totals[size] = o.rank_totals.get(size, 0) + 1
    return o


#: Per-entry columns every window holds, whatever its rows.
_LAYOUT = ("act_indptr", "act_e", "ps_act", "grp_starts", "grp_of")

#: Per-entry columns: the lowering has them one window at a time, the
#: captured-deadline increment only for rows that weigh ``deadlines``.
_PER_ENTRY = _LAYOUT + ("fin_act",)

#: Per-chronon and per-group columns of a window.
_PER_GROUP = ("act_chronons", "grp_indptr", "grp_rid", "grp_sizes")

#: Window caps the comparison runs at: a cut at every chronon, cuts
#: through EIs and t-intervals, and the real one (a single window here).
_CAPS = (1, 7, columnar_module._WINDOW_ENTRIES)


def key_columns(keys) -> tuple[set[str], set[ScoreKey]]:
    """What a window built for ``keys`` holds beyond its layout: the
    per-entry attributes, and one ``hi_static`` column per row."""
    keys = set(keys)
    attrs = {"fin_act"} if any(key.deadlines for key in keys) else set()
    return attrs, keys


def stitched(col: ColumnarInstance, keys=tuple(ROWS.values())
             ) -> SimpleNamespace:
    """``col.windows(keys)`` concatenated into whole-epoch columns — the
    layout and the key columns of ``keys`` — checking that every window
    holds exactly the arrays of the rows it was built for."""
    wins = list(col.windows(keys))
    attrs, static = key_columns(keys)
    w = SimpleNamespace()
    entries = groups = chronons = 0
    parts = {name: [] for name in _LAYOUT + _PER_GROUP + tuple(attrs)}
    rows = {key: [] for key in static}
    for win in wins:
        assert win.first_chronon == chronons
        assert win.first_group == groups
        assert win.n_act == win.act_chronons.size > 0
        # A kept window may hold what an earlier run asked for too.
        assert set(keys) <= win.keys
        held_attrs, held_static = key_columns(win.keys)
        held = {name for name, value in vars(win).items()
                if isinstance(value, np.ndarray)}
        assert held == set(_LAYOUT + _PER_GROUP) | held_attrs
        assert set(win.hi_static) == held_static
        for name in parts:
            column = getattr(win, name)
            if name in ("act_indptr", "grp_indptr"):
                column = column[:-1]
            if name in ("act_indptr", "grp_starts"):
                column = column + entries
            elif name == "grp_indptr":
                column = column + groups
            parts[name].append(column)
        for key in rows:
            rows[key].append(win.hi_static[key])
        entries += win.act_e.size
        groups += win.grp_rid.size
        chronons += win.n_act
    parts["act_indptr"].append(np.array([entries]))
    parts["grp_indptr"].append(np.array([groups]))
    empty = [np.zeros(0, dtype=np.int64)]
    for name, columns in parts.items():
        setattr(w, name, np.concatenate(empty + columns))
    w.hi_static = {key: np.concatenate(empty + columns)
                   for key, columns in rows.items()}
    w.windows = len(wins)
    return w


def assert_same_lowering(profiles, epoch, visible_from=None,
                         gone_from=None) -> ColumnarInstance:
    want = oracle(profiles, epoch, visible_from, gone_from)
    for cap in _CAPS:
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            got = ColumnarInstance.build(profiles, epoch, visible_from,
                                         gone_from)
        _assert_equals_oracle(got, want, cap)
    return got


def _assert_equals_oracle(got: ColumnarInstance, want: SimpleNamespace,
                          cap: int) -> None:
    public = {name for name in vars(got) if not name.startswith("_")}
    assert public == (set(vars(want)) - set(_PER_ENTRY)
                      - {"hi_static", "visibility"}) | {
        "epoch", "lower_seconds", "g_max", "windows_built",
        "window_seconds"}
    for actual, expected in zip(got.visibility(), want.visibility):
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
    some = np.arange(0, got.E, 2)
    for actual, expected in zip(got.visibility(some), want.visibility):
        assert np.array_equal(actual, expected[some])
    for name, expected in vars(want).items():
        if name in _PER_ENTRY or name in ("hi_static", "visibility"):
            continue
        actual = getattr(got, name)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, name
            assert np.array_equal(actual, expected), name
        else:
            assert type(actual) is type(expected), name
            assert actual == expected, name
    # Same sizes in the same first-seen order (reports iterate it).
    assert list(got.rank_totals.items()) == list(want.rank_totals.items())

    # What the grid knows before any entry exists.
    total = want.act_e.size
    per_chronon = np.diff(want.grp_indptr)
    assert got.g_max == (int(per_chronon.max()) if per_chronon.size else 0)
    grp_T, grp_rid = got.fault_layout()
    assert np.array_equal(grp_T, np.repeat(want.act_chronons, per_chronon))
    assert grp_rid is got.grp_rid
    group_sizes = np.diff(np.append(want.grp_starts, total))
    assert np.array_equal(got._grp_size, group_sizes)
    assert (got.windows_built, got.window_seconds) == (0, 0.0)

    # The windows, wherever they were cut.
    whole = stitched(got)
    assert np.array_equal(whole.grp_sizes, group_sizes)
    _assert_same_columns(whole, want, ROWS.values(), cap)
    spans = np.diff(want.act_indptr)
    if cap == 1:
        assert whole.windows == spans.size
    elif total <= cap:
        assert whole.windows == min(1, spans.size)
    assert got.windows_built == whole.windows
    assert got.lower_seconds > 0.0
    if whole.windows:
        assert got.window_seconds > 0.0
    # One window is kept and handed out again; several are rebuilt.
    again = list(got.windows())
    assert len(again) == whole.windows
    assert got.windows_built == whole.windows * (1 if len(again) == 1
                                                 else 2)
    for win in again:
        assert win.act_e.size <= max(cap, int(spans.max()))


def _assert_same_columns(whole: SimpleNamespace, want: SimpleNamespace,
                         keys, cap: int) -> None:
    """The stitched windows' layout and ``keys``' key columns equal the
    oracle's, value and dtype."""
    attrs, static = key_columns(keys)
    for name in _LAYOUT + ("act_chronons", "grp_indptr", "grp_rid") \
            + tuple(sorted(attrs)):
        actual, expected = getattr(whole, name), getattr(want, name)
        assert actual.dtype == expected.dtype, (name, cap)
        assert np.array_equal(actual, expected), (name, cap)
    assert set(whole.hi_static) == static
    for key in static:
        assert whole.hi_static[key].dtype == want.hi_static[key].dtype
        assert np.array_equal(whole.hi_static[key], want.hi_static[key]), \
            (key, cap)


def _eta(*eis) -> TInterval:
    return TInterval(ExecutionInterval(*ei) for ei in eis)


class TestEdgeCases:
    def test_empty_profile_set(self):
        col = assert_same_lowering(ProfileSet(), Epoch(8))
        assert (col.S, col.E, col.n_max, col.rid_space) == (0, 0, 1, 1)

    def test_a_lowering_holds_one_profile_set(self):
        profiles = ProfileSet([Profile([_eta((0, 1, 3))])])
        with pytest.raises(TypeError, match="one ProfileSet, got list"):
            ColumnarInstance.build([profiles, profiles], Epoch(8))

    def test_profile_without_tintervals(self):
        profiles = ProfileSet([
            Profile([]),
            Profile([_eta((0, 2, 4), (1, 3, 3)), _eta((1, 1, 2))]),
            Profile([]),
            Profile([_eta((2, 2, 6))]),
        ])
        col = assert_same_lowering(profiles, Epoch(8))
        assert col.profile_totals == {0: 0, 1: 2, 2: 0, 3: 1}
        assert col.st_rank.tolist() == [2, 2, 1]

    def test_ei_opening_past_the_epoch(self):
        profiles = ProfileSet([
            Profile([_eta((0, 12, 15))]),
            Profile([_eta((1, 2, 3), (0, 11, 11)), _eta((1, 9, 14))]),
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
            Profile([_eta((r, s, s + r)) for s in (4, 1, 4)])
            for r in range(3)])
        col = assert_same_lowering(profiles, Epoch(6))
        assert col.rank_totals == {1: 9}
        medf = ROWS["M-EDF"]
        whole = stitched(col, [medf])
        # Every entry's state has exactly its own EI started.
        act_T = np.repeat(whole.act_chronons, np.diff(whole.act_indptr))
        assert np.array_equal(whole.hi_static[medf] >> col.score_shift,
                              col.init_sum[whole.ps_act] - act_T
                              + col.score_offset(medf))

    def test_fused_activity_key_beyond_16_bits(self):
        # (window chronons) * resources > 2**16, beyond the 16-bit keys a
        # radix sort would take: the activity sort keeps its order on
        # the wide key too.
        profiles = ProfileSet([
            Profile([_eta((900, 3, 40), (5, 1, 70)), _eta((5, 2, 2))]),
            Profile([_eta((900, 1, 64))]),
        ])
        assert_same_lowering(profiles, Epoch(80))

    def test_wide_key_raises_batch_unsupported(self):
        profiles = ProfileSet([Profile([_eta((0, 1, 1 << 40))])])
        with pytest.raises(BatchUnsupported):
            oracle(profiles, Epoch(4))
        with pytest.raises(BatchUnsupported):
            ColumnarInstance.build(profiles, Epoch(4))

    def test_sparse_resource_ids_raise_batch_unsupported(self):
        # No dense (chronon x resource id) grid for ids this sparse; the
        # caller falls back to the fast engine instead of allocating it.
        profiles = ProfileSet([Profile([_eta((1 << 26, 1, 2))])])
        with pytest.raises(BatchUnsupported, match="too sparse"):
            ColumnarInstance.build(profiles, Epoch(4))


class TestAgainstOracle:
    @given(profiles=profile_sets(max_profiles=4))
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
            Profile([_eta((0, last - 36, last - 31))]),
            Profile([_eta((1, 10, 12), (0, 11, 13))]),
        ])
        col = assert_same_lowering(profiles, Epoch(last))
        first, until = col.visibility()
        ever = np.flatnonzero(first <= until)
        assert np.array_equal(col._by_start,
                              ever[np.argsort(first[ever], kind="stable")])
        assert col.st_arrival.tolist() == [10, last - 36]
        assert col.xe_chronons.tolist() == [13, 14, last - 30]


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
        # one word per row, and a deadline column for M-EDF's alone.
        keys = [ROWS[name] for name in kinds]
        whole = stitched(col, keys)
        assert whole.windows == (1 if cap > 7 else col.windows_built) > 0
        _assert_same_columns(whole, want, keys, cap)

    def test_a_kept_window_grows_to_the_union_of_kinds(self, small):
        """A kept single window serves an S-EDF block, an M-EDF block
        and two federated runs, each identical to the reference; it is
        rebuilt, for the union, only when a run reads a row it lacks."""
        profiles, want = small
        epoch_, budget = _SMALL.epoch, _SMALL.budget_vector
        col = ColumnarInstance.build(profiles, epoch_)
        sedf, medf, mrsf = ROWS["S-EDF"], ROWS["M-EDF"], ROWS["MRSF"]
        steps = (("S-EDF(NP)", "block", {sedf}, 1),
                 ("M-EDF(P)", "block", {sedf, medf}, 2),
                 ("M-EDF(NP)", "federated", {sedf, medf}, 2),
                 ("MRSF(P)", "federated", {sedf, medf, mrsf}, 3))
        for label, how, keys, built in steps:
            policy, preemptive = parse_policy_spec(label)
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
            (window,) = col.windows()
            assert (window.keys, col.windows_built) == (keys, built)
        _assert_same_columns(stitched(col, (sedf, medf, mrsf)), want,
                             (sedf, medf, mrsf), 0)
        assert col.windows_built == 3


def test_a_block_holds_one_instance():
    """Lane instance index 0 (or none) is the block's instance; any
    other index has nothing to name."""
    profiles = ProfileSet([Profile([_eta((0, 1, 3), (1, 2, 4))])])
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
        Profile([_eta((0, 1, 3), (1, 2, 4)), _eta((2, 2, 2))]),
        Profile([_eta((1, 1, 5)), _eta((0, 3, 6), (2, 4, 6))]),
    ])
    policy, preemptive = parse_policy_spec("M-EDF(P)")
    columnar = ColumnarInstance.build(profiles, Epoch(6))
    fed = federated_run(profiles, Epoch(6), BudgetVector(1), policy,
                        preemptive=preemptive, shards=2,
                        columnar=columnar)
    assert fed.result.probes_used > 0
    (window,) = columnar.windows()
    # M-EDF's row is its one key column: no static word of another row.
    assert window.keys == set(window.hi_static) == {ROWS["M-EDF"]}
    # A prebuilt lowering costs a run its windows, not its constructor —
    # and nothing once the (single, kept) window exists.
    assert fed.lower_seconds == columnar.window_seconds > 0.0
    assert fed.result.extras["lowering_windows"] == 1.0
    again = federated_run(profiles, Epoch(6), BudgetVector(1), policy,
                          preemptive=preemptive, shards=2,
                          columnar=columnar)
    assert again.lower_seconds == 0.0
    assert again.result.extras["lowering_windows"] == 0.0
    built = federated_run(profiles, Epoch(6), BudgetVector(1), policy,
                          preemptive=preemptive, shards=2)
    assert 0.0 < built.lower_seconds <= built.result.runtime_seconds
