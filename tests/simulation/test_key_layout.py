"""The one packed-key layout, from candidate to pool.

A candidate key is ``(score, finish, 0, start, 0)`` and a pool's rank
key the same word with the pool's two fields OR-ed in
(:meth:`ColumnarInstance.resource_key`): ``(score, finish, n_max - n,
start, rid)``. Pinned here against an independent positional packing:
the word itself, its order, the empty pool — exactly ``INF_KEY``, never
negative, whatever the masked-out keys held — and the 62-bit boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.online import key_of
from repro.online.registry import available_policies, parse_policy_spec
from repro.simulation import run_online
from repro.simulation.batch import _pool_keys, run_block
from repro.simulation.columnar import (
    _MAX_KEY_BITS,
    BatchUnsupported,
    ColumnarInstance,
    INF_KEY,
)

_EPOCH = Epoch(8)


def _eta(*eis) -> TInterval:
    return TInterval(ExecutionInterval(*ei) for ei in eis)


def _instance(far: int, rid: int) -> ProfileSet:
    """Seven t-intervals on resources 0-3 and ``rid``; ``far`` is one
    deadline past the epoch, which sets the finish and score widths."""
    return ProfileSet([
        Profile([_eta((0, 1, 3), (1, 2, 5)), _eta((2, 2, 2))]),
        Profile([_eta((1, 1, 4)), _eta((0, 3, 6), (2, 4, 6)),
                 _eta((3, 5, far))]),
        Profile([_eta((rid, 2, 7), (1, 6, 8))]),
    ])


_COL = ColumnarInstance.build(_instance(200, 5), _EPOCH)


def _pack(col, score, finish, inv_n, start, rid) -> int:
    """The five-field word by positional arithmetic, no shifts shared
    with the lowering."""
    word = score
    for value, bits in ((finish, col.finish_bits), (inv_n, col.n_bits),
                        (start, col.start_bits), (rid, col.rid_bits)):
        assert 0 <= value < 1 << bits
        word = word * (1 << bits) + value
    return word


def _below(bits: int):
    return st.integers(0, (1 << bits) - 1)


@st.composite
def _chronons(draw, col=_COL):
    """One chronon's pools: per pool a resource id and 1..n_max entries,
    per (row, entry) a candidate flag and in-width (score, finish,
    start) fields — arbitrary int64 words where the flag is off."""
    rids = draw(st.lists(_below(col.rid_bits), min_size=1, max_size=5,
                         unique=True))
    sizes = [draw(st.integers(1, col.n_max)) for _ in rids]
    entries = sum(sizes)
    rows = draw(st.integers(1, 3))
    fields = st.tuples(_below(col.score_bits), _below(col.finish_bits),
                       _below(col.start_bits))
    mode = draw(st.sampled_from(("random", "all", "none")))
    flag = {"random": st.booleans(), "all": st.just(True),
            "none": st.just(False)}[mode]
    pool = np.array(draw(st.lists(
        st.lists(flag, min_size=entries, max_size=entries),
        min_size=rows, max_size=rows)), dtype=bool)
    cands = [[draw(fields) for _ in range(entries)] for _ in range(rows)]
    stale = st.integers(-(1 << 63), (1 << 63) - 1)
    hi = np.array([[_pack(col, s, f, 0, b, 0) if pool[r, e] else draw(stale)
                    for e, (s, f, b) in enumerate(cands[r])]
                   for r in range(rows)], dtype=np.int64)
    return np.array(sorted(rids)), sizes, pool, cands, hi


@given(_chronons())
@settings(max_examples=200, deadline=None)
def test_pool_key_is_the_five_field_word(chronon):
    col = _COL
    rids, sizes, pool, cands, hi = chronon
    starts = np.cumsum(sizes) - sizes
    pool_n = np.add.reduceat(pool, starts, axis=1)
    key = _pool_keys(col, pool, pool_n, hi, starts, rids, None)
    assert key.dtype == np.int64

    # The mask arithmetic is np.where(pool, hi, INF_KEY), stale words
    # with the sign bit set included.
    best = np.minimum.reduceat(np.where(pool, hi, INF_KEY), starts, axis=1)
    assert np.array_equal(key, col.resource_key(best, pool_n, rids))

    for r in range(pool.shape[0]):
        ranked = []
        for g, (lo, size) in enumerate(zip(starts.tolist(), sizes)):
            live = [cands[r][e] for e in range(lo, lo + size) if pool[r, e]]
            if not live:
                # An empty pool is exactly INF_KEY: never negative,
                # never below a live key.
                assert key[r, g] == INF_KEY
                continue
            score, finish, start = min(live)
            fields = (score, finish, col.n_max - len(live), start,
                      int(rids[g]))
            assert key[r, g] == _pack(col, *fields) < INF_KEY
            ranked.append((fields, g))
        # Pool keys order as the five-field tuples order, empties last.
        order = np.argsort(key[r], kind="stable")[:len(ranked)]
        assert order.tolist() == [g for _fields, g in sorted(ranked)]
    assert (key >= 0).all()


def test_full_and_empty_pools_at_the_field_limits():
    col = _COL
    top = [(1 << bits) - 1 for bits in (col.score_bits, col.finish_bits,
                                        col.start_bits)]
    rid = (1 << col.rid_bits) - 1
    hi = np.full((2, col.n_max), _pack(col, top[0], top[1], 0, top[2], 0))
    pool = np.array([[True] * col.n_max, [False] * col.n_max])
    starts, rids = np.array([0]), np.array([rid])
    key = _pool_keys(col, pool, np.add.reduceat(pool, starts, axis=1), hi,
                     starts, rids, None)
    # n == n_max packs a zero size field; every other field is all ones.
    assert key[0, 0] == _pack(col, top[0], top[1], 0, top[2], rid)
    assert key[0, 0].item().bit_length() == col.score_shift + col.score_bits
    assert key[1, 0] == INF_KEY
    # All-empty rows stay INF_KEY through resource_key alone, too.
    empty = np.full((3, 4), INF_KEY)
    assert (col.resource_key(empty, np.zeros((3, 4), dtype=np.int64),
                             np.arange(4)) == INF_KEY).all()


_SPECS = [f"{name}({mode})" for name in available_policies()
          for mode in ("P", "NP")
          if key_of(parse_policy_spec(f"{name}({mode})")[0]) is not None]


class TestTheBitBound:
    FAR = (1 << 27) - 1

    def test_exactly_62_bits_runs_on_the_columns(self):
        profiles = _instance(self.FAR, 3)
        col = ColumnarInstance.build(profiles, _EPOCH)
        assert col.score_shift + col.score_bits == _MAX_KEY_BITS == 62
        lanes = [(*parse_policy_spec(spec), BudgetVector(2))
                 for spec in _SPECS]
        assert len(lanes) >= 10
        for spec, (policy, preemptive, budget), got in zip(
                _SPECS, lanes, run_block(profiles, _EPOCH, lanes,
                                         columnar=col)):
            want = run_online(profiles, _EPOCH, budget, policy,
                              preemptive=preemptive, engine="reference")
            assert list(got.schedule.probes()) == \
                list(want.schedule.probes()), spec
            assert got.report == want.report, spec
            assert got.probes_used > 0

    def test_one_bit_more_is_refused_naming_the_widths(self):
        with pytest.raises(BatchUnsupported) as refused:
            ColumnarInstance.build(_instance(self.FAR, 4), _EPOCH)
        message = str(refused.value)
        assert "needs 63 bits (> 62)" in message
        assert ("score 28 + finish 27 + pool size 2 + start 3 + "
                "resource id 3") in message
