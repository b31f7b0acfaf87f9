"""Per-object oracles of the columnar lowering and of a churn plan.

:func:`oracle` is the construction the array-native
:class:`~repro.simulation.columnar.ColumnarInstance` replaced — Python
loops over every t-interval and EI, the whole epoch's activity entries
at once, a three-key ``lexsort`` for their order, every key column up
front — and :func:`assert_same_lowering` holds a lowering to it, value
and dtype, wherever its windows are cut. :func:`walk` applies a churn
plan event by event, as the engines do between chronons.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np

from repro import _fork
from repro.online import ScoreKey
from repro.online.base import noise
from repro.simulation import columnar as columnar_module
from repro.simulation.columnar import (
    _MAX_KEY_BITS,
    BatchUnsupported,
    ColumnarInstance,
    _bits,
)

from tests.conformance.cases import ROWS


def _row_range(key: ScoreKey, ranges) -> tuple[int, int]:
    """The row's lowest and highest score, by interval arithmetic over
    the feature ranges (``chronon`` and ``const`` have none)."""
    ends = [(getattr(key, name) * lo, getattr(key, name) * hi)
            for name, (lo, hi) in ranges.items()]
    return sum(map(min, ends)), sum(map(max, ends))


#: The lowering's int32 columns (docs/ALGORITHMS.md §13, "Column
#: widths") and its index's entry columns; its visibility windows are
#: int32 too, every other array is int64. The oracle computes in int64
#: and narrows these last.
NARROW = ("st_arrival", "st_visible", "st_gone", "st_rank", "st_profile",
          "st_size", "st_need", "st_tid", "ei_state", "ei_res", "ei_start",
          "ei_finish", "init_sum", "op_state", "op_indptr", "xe_e",
          "xg_starts", "xg_state", "grp_rid", "act_e", "ps_act")


def oracle(profiles, epoch, visible_from=None,
           gone_from=None) -> SimpleNamespace:
    """The per-object lowering: one Python step per t-interval and EI.

    ``visible_from`` / ``gone_from`` hold one chronon per t-interval in
    creation order, as for the lowering; a chronon past the epoch reads
    as ``last + 1``."""
    o = SimpleNamespace()
    last = epoch.last
    total_etas = sum(len(profile) for profile in profiles)
    visible = [0] * total_etas if visible_from is None \
        else [min(int(chronon), last + 1) for chronon in visible_from]
    gone = [last + 1] * total_etas if gone_from is None \
        else [min(int(chronon), last + 1) for chronon in gone_from]

    # States in seq order: the initial set by (clamped arrival, creation
    # order), then the mid-run registrations in creation order.
    st_arrival, st_rank, st_profile = [], [], []
    st_size, st_need, st_tid, etas = [], [], [], []
    rid_max = 0
    for profile in profiles:
        rank = profile.rank
        for eta in profile:
            st_arrival.append(min(
                max(eta.earliest_start, visible[len(etas)]), last))
            st_rank.append(rank)
            st_profile.append(eta.profile_id)
            st_size.append(len(eta))
            st_need.append(eta.need)
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
    o.st_need = seq_column(st_need)
    o.st_tid = seq_column(st_tid)

    # EIs state-major, within a state in ei_id order. An EI can be a
    # candidate from the chronon after its t-interval registered (the
    # fast engine's ``_queue_events``: visible from ``max(start,
    # arrival)``, nothing at all if it closed before) up to the clock
    # its t-interval was cancelled at.
    ei_res, ei_start, ei_finish, ei_state = [], [], [], []
    ei_noise, first, until = [], [], []
    for seq, i in enumerate(order):
        for ei in etas[i]:
            ei_res.append(ei.resource_id)
            ei_start.append(ei.start)
            ei_finish.append(ei.finish)
            ei_state.append(seq)
            ei_noise.append(int(noise(etas[i].profile_id,
                                      etas[i].tinterval_id, ei.ei_id)))
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
    # started: per entry, how many EIs of its state opened by its
    # chronon — a per-state prefix count via one fused searchsorted. The
    # lowering holds no such column: a run keeps the count per state.
    if o.E:
        stride = int(max(o.ei_start.max(),
                         act_T.max() if total else 0)) + 2
        fused = np.sort(o.ei_state * stride + o.ei_start)
        state_ei_ptr = np.searchsorted(
            o.ei_state, np.arange(o.S, dtype=np.int64))
        o.started = (
            np.searchsorted(fused, o.ps_act * stride + act_T, side="right")
            - state_ei_ptr[o.ps_act]).astype(np.int64)
    else:
        o.started = np.zeros(0, dtype=np.int64)

    # Openings: every EI's state by start (an EI past the epoch after
    # all of them), and per chronon how many EIs open before it.
    by_start = sorted(range(o.E),
                      key=lambda e: (min(int(o.ei_start[e]), last + 1), e))
    o.op_state = o.ei_state[np.array(by_start, dtype=np.int64)]
    o.op_indptr = np.array([int(np.count_nonzero(o.ei_start < T))
                            for T in range(last + 2)], dtype=np.int64)

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
        "need": (0, size_max),
        "captured": (0, size_max),
        "deadlines": (-last * size_max, int(o.init_sum.max()) if o.S else 1),
        "pool": (0, o.n_max),
        "noise": (0, 0xFFFF),
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
    # M-EDF's sum over every sibling; the run takes T off per started
    # or captured one.
    deadlines = o.init_sum[o.ps_act]
    rank = o.st_rank[o.ps_act]
    need = o.st_need[o.ps_act]
    draw = np.array(ei_noise, dtype=np.int64)[o.act_e]
    o.hi_static = {}
    for key in ROWS.values():
        score = (key.finish * fin + key.start * start + key.rank * rank
                 + key.need * need + key.deadlines * deadlines
                 + key.noise * draw
                 - _row_range(key, o.feature_ranges)[0])
        o.hi_static[key] = (score << o.score_shift) + finstart

    o.profile_totals = {profile.profile_id: len(profile)
                        for profile in profiles}
    o.rank_totals = {}
    for size in o.st_size.tolist():
        o.rank_totals[size] = o.rank_totals.get(size, 0) + 1
    for name in NARROW:
        setattr(o, name, getattr(o, name).astype(np.int32))
    o.visibility = tuple(column.astype(np.int32) for column in o.visibility)
    return o


#: Per-entry columns every window holds, whatever its rows.
_LAYOUT = ("act_indptr", "act_e", "ps_act", "grp_starts", "grp_of")

#: Per-entry columns of the oracle: the lowering has the layout one
#: window at a time, and ``started`` not at all.
_PER_ENTRY = _LAYOUT + ("started",)

#: Per-chronon and per-group columns of a window.
_PER_GROUP = ("act_chronons", "grp_indptr", "grp_rid", "grp_sizes")

#: Window caps the comparison runs at: a cut at every chronon, cuts
#: through EIs and t-intervals, and the real one (a single window here).
_CAPS = (1, 7, columnar_module._WINDOW_ENTRIES)


#: The index's entry columns, int32 whatever else a window holds.
_INDEX = ("act_e", "ps_act")


def stitched(col: ColumnarInstance, keys=tuple(ROWS.values())
             ) -> SimpleNamespace:
    """``col.windows(keys)`` concatenated into whole-epoch columns — the
    layout and the key columns of ``keys`` — checking that every window
    holds exactly the arrays of the rows it was built for. A window's
    columns hold until the next is asked for (a produced window's ring
    slot is then reused), so each is copied as it comes."""
    w = SimpleNamespace()
    entries = groups = chronons = windows = 0
    parts = {name: [] for name in _LAYOUT + _PER_GROUP}
    rows = {key: [] for key in keys}
    for win in col.windows(keys):
        windows += 1
        assert win.first_chronon == chronons
        assert win.first_group == groups
        assert win.n_act == win.act_chronons.size > 0
        # The same columns whatever the rows, and one key column each.
        held = {name for name, value in vars(win).items()
                if isinstance(value, np.ndarray)}
        assert held == set(_LAYOUT + _PER_GROUP)
        assert set(win.hi_static) == set(keys)
        for name in parts:
            column = getattr(win, name)
            if name in ("act_indptr", "grp_indptr"):
                column = column[:-1]
            if name in ("act_indptr", "grp_starts"):
                column = column + entries
            elif name == "grp_indptr":
                column = column + groups
            parts[name].append(column.copy())
        for key in rows:
            rows[key].append(win.hi_static[key].copy())
        entries += win.act_e.size
        groups += win.grp_rid.size
        chronons += win.n_act
    parts["act_indptr"].append(np.array([entries]))
    parts["grp_indptr"].append(np.array([groups]))
    for name, columns in parts.items():
        # A window column is as wide as the lowering's of that name.
        like = getattr(col, name, None)
        empty = np.zeros(0, dtype=np.int32 if name in _INDEX else
                         np.int64 if like is None else like.dtype)
        setattr(w, name, np.concatenate([empty] + columns))
    w.hi_static = {key: np.concatenate([np.zeros(0, dtype=np.int64)]
                                       + columns)
                   for key, columns in rows.items()}
    w.windows = windows
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
    assert_same_columns(whole, want, ROWS.values(), cap)
    spans = np.diff(want.act_indptr)
    if cap == 1:
        assert whole.windows == spans.size
    elif total <= cap:
        assert whole.windows == min(1, spans.size)
    assert got.windows_built == whole.windows
    assert got.lower_seconds > 0.0
    if whole.windows:
        assert got.window_seconds > 0.0
    # Streamed, every pass builds the index again; a pass that keeps it
    # builds it once more, and every pass after that reads it — the
    # same columns, for 8 bytes per entry held.
    held = got.nbytes
    again = list(got.windows(keep=True))
    assert len(again) == whole.windows
    assert got.windows_built == 2 * whole.windows
    for win in again:
        assert win.act_e.size <= max(cap, int(spans.max()))
    assert got.nbytes - held == 8 * total
    assert_same_columns(stitched(got), want, ROWS.values(), cap)
    assert got.windows_built == 2 * whole.windows


def assert_same_columns(whole: SimpleNamespace, want: SimpleNamespace,
                         keys, cap: int) -> None:
    """The stitched windows' layout and ``keys``' key columns equal the
    oracle's, value and dtype."""
    for name in _LAYOUT + ("act_chronons", "grp_indptr", "grp_rid"):
        actual, expected = getattr(whole, name), getattr(want, name)
        assert actual.dtype == expected.dtype, (name, cap)
        assert np.array_equal(actual, expected), (name, cap)
    assert set(whole.hi_static) == set(keys)
    for key in keys:
        assert whole.hi_static[key].dtype == want.hi_static[key].dtype
        assert np.array_equal(whole.hi_static[key], want.hi_static[key]), \
            (key, cap)


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
            closed = sum(ei.finish < arrival for ei in eta)
            if floor and closed > eta.size - eta.need:
                w.doomed_at_birth += 1
            w.candidate[key] = [
                [] if ei.finish < arrival else
                [T for T in range(max(ei.start, arrival), ei.finish + 1)
                 if floor <= T <= min(last, gone)]
                for ei in eta]
    w.seq = [key for *_order, key in sorted(seq)]
    return w


def cpus(count: int):
    """Patch the CPUs this process may run on to ``count``: 1 streams a
    lowering's windows in this process, 2 forks their producer."""
    return mock.patch.object(_fork, "usable_cpus", lambda: count)


def array_bytes(obj) -> int:
    return sum(value.nbytes for value in vars(obj).values()
               if isinstance(value, np.ndarray))
