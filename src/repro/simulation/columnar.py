"""Structure-of-arrays instance form for the batch simulation engine.

:class:`ColumnarInstance` lowers a :class:`~repro.core.profile.ProfileSet`
into flat NumPy columns plus CSR-style index structures, so that
:mod:`repro.simulation.batch` can advance a whole policy lineup with
array operations instead of per-object dispatch. The layout encodes the
reference simulator's tie-break order *positionally*:

* **States** (t-intervals) are sorted by (clamped arrival chronon,
  creation order) — exactly the reference's active-list order — so the
  state's array index IS its arrival sequence number. States
  registered mid-run follow all of those in registration order, as the
  live proxy numbers them.
* **EIs** are laid out state-major, within a state in ``ei_id`` order, so
  the global EI index orders identically to the ``(seq, ei_id)``
  tie-break the engines resolve full score ties with.
* **Lifetimes.** A state may carry ``visible_from`` (registered while
  the clock read ``visible_from - 1``) and ``gone_from`` (cancelled at
  that clock); absent, everyone is there from the start and nobody
  leaves. An EI can be a candidate over its *visibility window*
  ``[max(start, visible_from), min(finish, K, gone_from)]`` only
  (:meth:`ColumnarInstance.visibility`) — that is all churn changes:
  keys, scores and expiry keep reading the true ``start``/``finish``.
* **Per-chronon activity** is a CSR over chronons: for every chronon with
  at least one live window, the indices of the EIs whose visibility
  window contains it, sorted by (resource, EI index). Consecutive runs
  of one resource form the *groups* — the per-resource candidate pools
  — described by a second CSR (``grp_*``), so per-resource aggregation
  is a ``reduceat``.
  Deciding chronon ``T`` reads only the entries of ``T``, so a run
  never needs the index whole: the lowering keeps its *shape* (read off
  one occupancy grid) and :meth:`ColumnarInstance.windows` hands the
  entries out one :class:`ActivityWindow` at a time. The entry order
  is the same for every policy, so a lowering its caller keeps for
  several runs keeps that order too (8 B per entry) and builds it once;
  each run builds only its own key columns, a window at a time.
* **Expiry events** are one more CSR: EIs bucketed by the chronon after
  their deadline (``xe_*``, drives doom tracking).

Selection keys are packed into single int64 words so that lexicographic
comparison becomes integer comparison, in **one layout**, high to low
``(score, finish, n_max - n, start, rid)``. A pool's rank key fills all
five fields (the pool size inverted: bigger pools rank earlier); a
candidate's key is the same word with the pool-size and resource-id
fields zero, so a pool's minimum candidate key is its lexicographically
best ``(score, finish, start)`` and OR-ing the pool's two fields into it
(:meth:`ColumnarInstance.resource_key`) is the rank key — nothing is
unpacked. A score is the lane policy's
:class:`~repro.online.base.ScoreKey` row plus a per-row offset that
makes it non-negative; bit widths come from the instance's actual
bounds, and a key that cannot fit 62 bits raises
:class:`BatchUnsupported`: ``run_online`` and the harness fall back to
the reference simulator, a churned or federated run is refused.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.profile import ProfileColumns, ProfileSet
from repro.core.timeline import Epoch
from repro.faults.model import keyed_draw
from repro.online.base import ScoreKey
from repro.online.registry import registered_keys

__all__ = ["ActivityWindow", "BatchUnsupported", "ColumnarInstance",
           "FaultDraws", "INF_KEY"]

#: Sentinel ranking key for "no candidate" — larger than any packed key.
INF_KEY = np.iinfo(np.int64).max

#: Maximum bits a packed key may use (int64, sign bit spared, and one
#: headroom bit so arithmetic on valid keys can never wrap).
_MAX_KEY_BITS = 62

#: Most activity entries one window holds (a single chronon above it is
#: a window of its own). A constant, never an argument. A run holds one
#: window and builds one, so the cap is what a streamed run costs above
#: its O(EIs) columns, and what a run on a kept index costs above the
#: index's 8 B per entry: its per-run columns. Per entry, by the block's
#: score rows (traced, live-churn contract windows of a kept index): one
#: row 17 B held / 28 B at the build's peak, nine rows 81 / 97 B; a
#: whole window, index included, held 33 B for one row and 89 B for
#: eight before the index was kept. Measured end to end (benchmarks/e2e,
#: contract scale) at 2**16 -> 2**15 -> 2**14 with one window in flight,
#: when every window held 57 B per entry: live-churn (186 k entries)
#: peak RSS 50.6-50.7 -> 47.2-47.3 -> 45.3 MB against 47.7 on the event
#: engine, the bar this value was chosen to clear; catalog (821 k entries,
#: 14 -> 30 windows) 67.0 -> 67.0 MB and wall 0.288-0.300 -> 0.297-0.323 s,
#: 0.318-0.382 s at 2**14, which is why not lower; figures (48 k entries:
#: one kept window -> two rebuilt per block) 49.8 -> 44.7 MB, wall inside
#: its +-8 % run-to-run spread. On the catalog alone PR 17 measured 16 k /
#: 64 k / 256 k entries at 71 / 79 / 123 MB and 0.09-0.13 / 0.08-0.09 /
#: 0.10-0.11 s of window building: smaller windows pay per-window fixed
#: costs, larger ones fall out of cache and hold more.
_WINDOW_ENTRIES = 1 << 15

#: Entries a window's key columns are built in at a time (64 KiB of
#: int64): below the allocator's fresh-mapping threshold, so a chunk's
#: temporaries reuse the last chunk's memory.
_KEY_CHUNK = 1 << 13

#: Largest occupancy grid (chronons x resource ids) the lowering will
#: allocate: 1 GiB of int64 cells. Ids sparser than that have no dense
#: per-resource form (the fault plane's and the federation's
#: ``rid_space``-wide arrays assume one too).
_MAX_GRID_CELLS = 1 << 27


class BatchUnsupported(Exception):
    """The instance (or lineup) cannot run on the batch engine.

    Raised when packed selection keys would overflow 62 bits (gigantic
    scores, horizons or resource ids) and, by the block kernel, for
    policies and fault sources it has no columns for. ``run_online`` and
    the harness catch it and fall back to the reference simulator, which
    has no such bounds.
    """


def _bits(max_value: int) -> int:
    """Bits needed to store integers in ``[0, max_value]``."""
    return max(1, int(max_value).bit_length())


def _chronon_order(chronons: np.ndarray, bound: int) -> np.ndarray:
    """The stable ``argsort`` of chronon keys in ``[0, bound]``.

    Keys that fit 16 bits are sorted as ``uint16``, for which NumPy's
    stable sort is a radix sort — the same permutation, several times
    faster than the ``int64`` merge sort.
    """
    if bound < 1 << 16:
        chronons = chronons.astype(np.uint16)
    return np.argsort(chronons, kind="stable")


def _lifetime(name: str, values, S: int, default: int,
              last: int) -> np.ndarray:
    """One chronon per t-interval as int64 — ``default`` for each when
    ``values`` is None — or :class:`ValueError` naming ``name``. Past
    the epoch is past the epoch: values above ``last + 1`` read as it
    (registered or cancelled after the last chronon), which bounds them
    by the occupancy grid like every other chronon."""
    if values is None:
        return np.full(S, default, dtype=np.int64)
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in "iu" or array.size != S:
        raise ValueError(
            f"{name} must be an integer vector of one chronon per "
            f"t-interval ({S}), got {array.dtype} of shape {array.shape}")
    if array.size and array.min() < 0:
        raise ValueError(f"{name} must be >= 0, got {array.min()}")
    # Non-negative, so exact as uint64 whatever its width.
    return np.minimum(array.astype(np.uint64), last + 1).astype(np.int64)


class FaultDraws:
    """Keyed attempt-0 fault draws of one lowering, computed on demand.

    ``values`` has one row per ``(seed, channel)`` key (``keys[row]``;
    handed out by :meth:`row`) and one column per per-chronon
    per-resource group — the granularity the fault model draws at. Entry
    ``[row, g]`` is :func:`repro.faults.model.keyed_draw` of ``(seed,
    channel, rid, T, 0)`` for the group's resource and chronon — the
    draw :meth:`~repro.faults.model.FaultInjector.decide` makes for a
    first attempt — or NaN while no probe has asked for it. A draw
    depends on its key alone, so filling entries lazily and in any order
    is stream-exact, and the table is a pure cache shared by every block
    and shard run on the lowering. Row 0 is the sentinel 2.0, which no
    probability in [0, 1] ever exceeds: lanes that never consult a
    channel read it.
    """

    def __init__(self, grp_T: np.ndarray, grp_rid: np.ndarray) -> None:
        # Each group's resource id and chronon as Python ints, so a draw
        # formats no NumPy scalar.
        self._grp_T = grp_T.tolist()
        self._grp_rid = grp_rid.tolist()
        self.keys: list[tuple[int, str] | None] = [None]
        self._rows: dict[tuple[int, str], int] = {}
        self.values = np.full((1, grp_T.size), 2.0)

    def row(self, seed: int, channel: str) -> int:
        """The row of one draw key (added, all unfilled, when new)."""
        key = (seed, channel)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self.keys)
            self.keys.append(key)
            self.values = np.vstack(
                (self.values, np.full((1, len(self._grp_T)), np.nan)))
        return row

    def _draw(self, row: int, group: int) -> float:
        seed, channel = self.keys[row]
        return keyed_draw(seed, channel, self._grp_rid[group],
                          self._grp_T[group], 0)

    def gather(self, rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """The draws at ``(rows, groups)``, the still-unfilled ones drawn
        first — each once, however often the columns name it."""
        values = self.values[rows, groups]
        miss = np.isnan(values)
        if miss.any():
            rows, groups = rows[miss], groups[miss]
            for row, group in set(zip(rows.tolist(), groups.tolist())):
                self.values[row, group] = self._draw(row, group)
            values[miss] = self.values[rows, groups]
        return values


class ActivityWindow:
    """One run's view of the activity index over a run of consecutive
    active chronons.

    Two parts. The *index* is the entry order no policy changes: the
    window's entries sorted by (chronon, resource, EI index), as their
    EIs ``act_e`` and states ``ps_act`` (int32), and the group layout
    read off the lowering's grid — window-local offsets ``act_indptr`` /
    ``grp_starts`` (+ ``grp_sizes``) into the entries and ``grp_indptr``
    into the groups. ``first_chronon`` and ``first_group`` place the
    window in the lowering's numbering of active chronons and groups,
    which per-run budget columns and the fault plane (draws, outage
    columns) are indexed by. Groups never span windows (a group is one
    chronon's pool); EIs do — an EI whose window crosses a cut has
    entries on both sides.

    The *per-run columns* are built here and leave with the window —
    from the window's EIs when its index was sorted just now
    (``sorted_from``), else straight from the entries: ``grp_of``, each
    entry's group within its chronon, and one key column per score row
    (:class:`~repro.online.base.ScoreKey`) of the block that asked,
    ``hi_static[key]`` — per entry, ``(score << score_shift) |
    finstart``, the score being the row's per-EI terms (``deadlines``
    among them as the state's ``init_sum``) and its offset
    (:meth:`ColumnarInstance.score_offset`). The run adds the terms that
    read the chronon or the lane (``captured``, ``pool``, and the
    ``-T`` per started or captured sibling and the captured deadlines
    of ``deadlines``).
    """

    def __init__(self, col: "ColumnarInstance", lo: int, hi: int,
                 act_e: np.ndarray, ps_act: np.ndarray, keys,
                 sorted_from: tuple | None = None) -> None:
        self.first_chronon = lo
        self.n_act = hi - lo
        self.act_chronons = col.act_chronons[lo:hi]
        self.first_group = g0 = int(col.grp_indptr[lo])
        g1 = int(col.grp_indptr[hi])
        # The layout comes from the lowering's grid: which groups the
        # window holds and how many entries each has.
        self.grp_sizes = sizes = col._grp_size[g0:g1]
        self.grp_rid = col.grp_rid[g0:g1]
        self.grp_indptr = col.grp_indptr[lo:hi + 1] - g0
        self.grp_starts = np.cumsum(sizes) - sizes
        self.act_indptr = np.append(self.grp_starts,
                                    act_e.size)[self.grp_indptr]
        self.act_e = act_e
        self.ps_act = ps_act
        # Local (within-chronon) group index of each activity entry.
        self.grp_of = np.repeat(
            np.arange(g1 - g0, dtype=np.int64)
            - np.repeat(self.grp_indptr[:-1], np.diff(self.grp_indptr)),
            sizes)

        self.hi_static = {}
        if not keys:
            return
        reads = [(feature, column) for feature, column in (
            ("rank", col.st_rank), ("need", col.st_need),
            ("deadlines", col.init_sum))
            if any(getattr(key, feature) for key in keys)]

        def features(eis: np.ndarray, states: np.ndarray) -> dict:
            gathered = {"finish": col.ei_finish[eis],
                        "start": col.ei_start[eis]}
            gathered.update((feature, column[states])
                            for feature, column in reads)
            return gathered

        if sorted_from is not None:
            # The index was sorted just now from the window's EIs
            # ``eis``, ``at`` each entry's position among them: pack one
            # word per EI and gather the words to the entries.
            eis, at = sorted_from
            per_ei = features(eis, col.ei_state[eis])
            for key in keys:
                word = np.empty(eis.size, dtype=np.int64)
                col.pack_key(key, per_ei, word)
                self.hi_static[key] = word[at]
            return
        # A kept index: straight from the entries, a chunk at a time.
        # The chunk's temporaries (its entries widened to intp — an
        # int32 index would cost each gather a cast of its own — and
        # their gathers) are small enough for the allocator to hand the
        # same memory back chunk after chunk, so the key columns are the
        # only new memory the build touches.
        self.hi_static = {key: np.empty(act_e.size, dtype=np.int64)
                          for key in keys}
        for i in range(0, act_e.size, _KEY_CHUNK):
            chunk = slice(i, i + _KEY_CHUNK)
            per_entry = features(act_e[chunk].astype(np.intp),
                                 ps_act[chunk].astype(np.intp))
            for key, word in self.hi_static.items():
                col.pack_key(key, per_entry, word[chunk])


class ColumnarInstance:
    """Flat-array form of one (profiles, epoch) instance.

    Build once with :meth:`build`. The result is shared by every lane
    of every block run on it — all the budgets, policies and fault
    rates swept over one generated instance — since all per-run state
    lives in the engine, not here. A different instance (another
    repetition of a setting) is a different lowering and a different
    block: a lane's cost is then proportional to the EIs it can ever
    probe, never to what else was packed beside them.

    What it holds is O(EIs + states + groups): the state and EI
    columns, the expiry CSR, the packed-key layout and the *shape* of
    the activity index, whose entries :meth:`windows` hands out — and,
    once a run it was handed to has built them, the entries' order
    itself, 8 B per entry.

    ``visible_from`` / ``gone_from`` give each t-interval (one entry
    each, in the set's creation order) a lifetime: it was registered
    while the clock read ``visible_from - 1`` (0: part of the initial
    set) and cancelled when it read ``gone_from`` (past the epoch:
    never). A churned run is this and nothing else — see
    :func:`repro.simulation.churn.lower_plan`.
    """

    def __init__(self, profiles: ProfileSet, epoch: Epoch,
                 visible_from: np.ndarray | None = None,
                 gone_from: np.ndarray | None = None) -> None:
        began = time.perf_counter()
        if not isinstance(profiles, ProfileSet):
            raise TypeError(
                f"a lowering holds one ProfileSet, got "
                f"{type(profiles).__name__}; lower each instance on its "
                "own")
        self.epoch = epoch
        last = epoch.last

        # ------------------------------------------------------------------
        # Input is the set's int32 EI-row columns in creation order (a
        # hand-built set walks its objects once to produce them, and has
        # none if an id or chronon passes int32); everything below is
        # array arithmetic on those.
        # ------------------------------------------------------------------
        try:
            columns = profiles.columns()
        except ValueError as why:
            raise BatchUnsupported(str(why)) from None
        self.E = E = columns.ei_start.size
        #: Resource ids live in ``[0, rid_space)``.
        self.rid_space = R = int(columns.ei_resource.max()) + 1 if E else 1
        if (last + 2) * R > _MAX_GRID_CELLS:
            raise BatchUnsupported(
                f"resource ids up to {R - 1} over {last} chronons are "
                "too sparse for a dense per-resource index")
        if max(E, len(columns.names)) >> 31:
            raise BatchUnsupported(f"{E} EIs of {len(columns.names)} "
                                   "profiles: positions past int32")
        self._build_columns(columns, visible_from, gone_from, last)
        self._build_grid(last)
        self._build_keys(last)
        self._build_events(last)
        self._build_openings(last)
        # Lazily-built fault-plane columns (see fault_draws /
        # outage_column): pure caches keyed on spec parameters, safe to
        # share across every block run on this lowering.
        self._fault_cols: dict[tuple, np.ndarray] = {}
        self._fault_draws: FaultDraws | None = None
        self._commit_tie: np.ndarray | None = None
        #: Wall time this constructor took (the build callers wait for
        #: before the first chronon; window building is booked below).
        self.lower_seconds = time.perf_counter() - began
        #: Activity windows built so far, over every run on this
        #: lowering, and the wall time that took — spent inside the
        #: runs, not the constructor.
        self.windows_built = 0
        self.window_seconds = 0.0

    def _build_columns(self, columns: ProfileColumns,
                       visible_from: np.ndarray | None,
                       gone_from: np.ndarray | None, last: int) -> None:
        """The state and EI columns, int32 (docs/ALGORITHMS.md §13,
        "Column widths"): the EI-row columns arrive int32 and are
        gathered as they are, positions and counts hold by ``E <
        2**31``, and ``init_sum`` is summed in int64 and kept int32 under
        a bound checked here. The state order, the EI gather and the
        per-t-interval inputs are this method's locals, gone before the
        grid is built."""
        start, res = columns.ei_start, columns.ei_resource
        ptr = columns.tinterval_heads()
        self.S = S = ptr.size
        visible_from = _lifetime("visible_from", visible_from, S, 0, last)
        gone_from = _lifetime("gone_from", gone_from, S, last + 1, last)
        size = np.diff(np.append(ptr, self.E))
        # A profile's rank is its largest t-interval; empty profiles own
        # no state (and reduceat takes no empty segment).
        eta_profile = columns.ei_profile[ptr]
        p_len = np.bincount(eta_profile, minlength=len(columns.names))
        self.profile_totals = dict(enumerate(p_len.tolist()))
        full = p_len > 0
        rank = np.repeat(
            np.maximum.reduceat(size, (np.cumsum(p_len) - p_len)[full]),
            p_len[full])

        # ------------------------------------------------------------------
        # States in seq order: the initial set by (clamped arrival,
        # creation order), then whoever registered mid-run in
        # registration (= creation) order, whatever their arrival.
        # ------------------------------------------------------------------
        arrival = np.minimum(
            np.maximum(np.minimum.reduceat(start, ptr), visible_from), last)
        order = _chronon_order(
            np.where(visible_from > 0, last + 1, arrival), last + 1)
        narrow = np.int32
        self.st_arrival = arrival[order].astype(narrow)
        self.st_visible = visible_from[order].astype(narrow)
        self.st_gone = gone_from[order].astype(narrow)
        self.st_rank = rank[order].astype(narrow)
        self.st_profile = eta_profile[order]
        self.st_size = size[order].astype(narrow)
        self.st_need = columns.ei_need[ptr][order]
        self.st_tid = columns.ei_tinterval[ptr][order]
        heads = ptr[order]
        del arrival, visible_from, gone_from, rank, size, ptr, order

        # ------------------------------------------------------------------
        # EIs state-major, within a state in ei_id order: a gather of the
        # creation-order columns (each state's EIs are one contiguous run).
        # ------------------------------------------------------------------
        ei_ptr = np.cumsum(self.st_size) - self.st_size
        self._ei_ptr = ei_ptr.astype(narrow)
        self.ei_state = np.repeat(np.arange(S, dtype=narrow), self.st_size)
        # The gather: each state's run of rows counts up from its head,
        # so it is the running sum, in place, of a column of ones with,
        # at each state's first EI, the jump from the previous state's
        # last row to this state's head. intp, not int32: an int32 index
        # would cost each of the three gathers a cast of its own.
        gather = np.ones(self.E, dtype=np.intp)
        if S:
            heads[1:] -= heads[:-1] + self.st_size[:-1] - 1
            gather[ei_ptr] = heads
        del heads
        np.cumsum(gather, out=gather)
        self.ei_res = res[gather]
        self.ei_start = start[gather]
        self.ei_finish = columns.ei_finish[gather]
        del gather
        # M-EDF's initial deadline sum counts every EI, active or not:
        # summed in int64 (an int32 sum could wrap), then narrowed.
        init_sum = np.add.reduceat(self.ei_finish, ei_ptr, dtype=np.int64)
        if init_sum.size and int(init_sum.max()) >> 31:
            raise BatchUnsupported(
                f"a t-interval's deadlines sum to {int(init_sum.max())}, "
                "past int32")
        self.init_sum = init_sum.astype(narrow)

    @classmethod
    def build(cls, profiles: ProfileSet, epoch: Epoch,
              visible_from: np.ndarray | None = None,
              gone_from: np.ndarray | None = None) -> "ColumnarInstance":
        """Columnar form of one instance (raises :class:`BatchUnsupported`)."""
        return cls(profiles, epoch, visible_from, gone_from)

    @property
    def nbytes(self) -> int:
        """Bytes of the NumPy arrays this lowering holds itself — its
        columns, CSRs, the caches built so far and the activity index
        once a run kept it; the per-run window columns are the runs' and
        are not counted."""
        return sum(value.nbytes for value in vars(self).values()
                   if isinstance(value, np.ndarray)) + sum(
            act_e.nbytes + ps_act.nbytes
            for _lo, _hi, act_e, ps_act in self._index or ())

    def visibility(self, eis=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """``(first, until)``: the chronons over which each of ``eis``
        (default: all) can be a candidate; ``first > until`` is never.

        A t-interval registered at clock ``T`` takes part from ``T + 1``
        on and one cancelled at clock ``C`` up to ``C``, so an EI's
        window ``[start, min(finish, K)]`` is cut to its state's
        lifetime. With no lifetimes given this is the window itself (an
        EI opening past the epoch has ``first > until``).
        """
        state = self.ei_state[eis]
        first = np.maximum(self.ei_start[eis], self.st_visible[state])
        until = np.minimum(np.minimum(self.ei_finish[eis], self.epoch.last),
                           self.st_gone[state])
        return first, until

    # ------------------------------------------------------------------
    # The activity index's shape, from the occupancy grid
    # ------------------------------------------------------------------

    def _build_grid(self, last: int) -> None:
        """Read the activity index's shape off one occupancy grid.

        An EI is probeable over its visibility window; one whose
        window is empty — it opens past the epoch, closes before its
        state registers, or its state is cancelled first — never
        becomes a candidate (the reference, the live proxy, asks each
        state for its ``probeable_eis`` every chronon and is never
        handed it). ``occ[T, rid]`` — how many windows on ``rid``
        contain ``T`` — is a difference array (+1 where a window opens,
        -1 the chronon after it closes) summed down the chronons, and is
        the size of group ``(T, rid)``: the groups, in (chronon,
        resource) order, are its non-zero cells.
        """
        R = self.rid_space
        # The EIs that are ever visible, by first visible chronon: what
        # windows() walks.
        first, until = self.visibility()
        ever = np.flatnonzero(first <= until)
        self._by_start = ever[_chronon_order(first[ever], last)].astype(
            np.int32)
        del ever
        starts = first[self._by_start]
        del first
        res = self.ei_res[self._by_start]
        cells = (last + 2) * R
        occ = np.bincount(starts * R + res, minlength=cells)
        # The E-sized keys, not the (K+2) x R grid, set this method's
        # peak: the closing keys are built in one buffer.
        closes = until[self._by_start]
        del until
        closes += 1
        closes *= R
        closes += res
        occ -= np.bincount(closes, minlength=cells)
        del closes
        occ = occ.reshape(last + 2, R).cumsum(axis=0)

        # Group columns int32: chronons and resource ids by the grid's
        # bound, sizes by E's.
        grp_T, grp_rid = np.nonzero(occ)
        self._grp_size = occ[grp_T, grp_rid].astype(np.int32)
        self._grp_T = grp_T.astype(np.int32)
        self.grp_rid = grp_rid.astype(np.int32)
        del grp_T, grp_rid
        self.n_max = int(self._grp_size.max()) if self._grp_T.size else 1
        entries = occ.sum(axis=1)
        self.act_chronons = np.nonzero(entries)[0]
        groups = np.count_nonzero(occ, axis=1)[self.act_chronons]
        #: Most groups (probeable resources) any one chronon has.
        self.g_max = int(groups.max()) if groups.size else 0
        self.grp_indptr = np.concatenate(([0], np.cumsum(groups)))

        # Window cuts: consecutive active chronons while their entries
        # fit the cap; a chronon above the cap is a window of its own.
        # Each cut is (first, past-last active chronon index, how far
        # down the start-sorted order its EIs reach).
        ends = np.cumsum(entries[self.act_chronons])
        bounds = [0]
        while bounds[-1] < ends.size:
            lo = bounds[-1]
            base = int(ends[lo - 1]) if lo else 0
            bounds.append(max(lo + 1, int(np.searchsorted(
                ends, base + _WINDOW_ENTRIES, side="right"))))
        reach = np.searchsorted(
            starts, self.act_chronons[np.array(bounds[1:], dtype=np.int64)
                                      - 1], side="right")
        self._cuts = list(zip(bounds, bounds[1:], reach.tolist()))
        #: Each cut's ``(lo, hi, act_e, ps_act)``, once a run kept them.
        self._index: list[tuple] | None = None

    def windows(self, keys=(), keep: bool = False):
        """Yield the activity index, one :class:`ActivityWindow` at a time,
        with the key columns the lanes' score rows ``keys`` read.

        ``keep`` says whether the lowering outlives the run —
        :func:`~repro.simulation.batch.run_block` and
        :func:`~repro.simulation.shard.federated_run` pass whether their
        caller handed it in. Such a lowering holds the index (each
        window's ``act_e`` and ``ps_act``, 8 B per entry) once a run has
        built all of it, and every later run reads it; a lowering that
        holds none builds each window's index when its chronons are due
        and keeps no reference. The per-run columns are built for every
        run, a window at a time. A consumer that drops its own
        references before asking for the next window (as the chronon
        loops do) therefore holds one window of per-run columns at a
        time — never two, never the epoch — and, streaming, one window
        of index.
        """
        keys = tuple(dict.fromkeys(keys))
        if self._index is not None:
            for lo, hi, act_e, ps_act in self._index:
                began = time.perf_counter()
                window = ActivityWindow(self, lo, hi, act_e, ps_act, keys)
                self.window_seconds += time.perf_counter() - began
                yield window
                # One window in flight: the consumer has let go of this
                # one by now, so must the generator before it builds the
                # next.
                del window
            return
        # A window's EIs are those still visible from the previous
        # window plus the next run of the start-sorted order — never a
        # scan of all EIs per window.
        held = [] if keep else None
        eis = until = np.zeros(0, dtype=np.int32)
        taken = 0
        for lo, hi, upto in self._cuts:
            began = time.perf_counter()
            # No chronon between two windows is active, so an EI still
            # visible after the previous window reaches into this one.
            eis = np.sort(np.concatenate((
                eis[until >= self.act_chronons[lo]],
                self._by_start[taken:upto])))
            taken = upto
            first, until = self.visibility(eis)
            at = self._entry_order(eis, first, until, lo, hi)
            act_e, ps_act = eis[at], self.ei_state[eis][at]
            self.windows_built += 1
            if held is not None:
                held.append((lo, hi, act_e, ps_act))
            window = ActivityWindow(self, lo, hi, act_e, ps_act, keys,
                                    (eis, at))
            self.window_seconds += time.perf_counter() - began
            del first, at, act_e, ps_act
            yield window
            del window
        if held is not None:
            self._index = held

    def _entry_order(self, eis: np.ndarray, first: np.ndarray,
                     until: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The entries of active chronons ``[lo, hi)``, sorted by
        (chronon, resource, EI index), as each entry's position in
        ``eis``.

        EI ``eis[i]`` (ascending) contributes the chronons of its
        visibility window ``[first[i], until[i]]`` that fall inside the
        window's. One int64 word per entry, ``(chronon - t0, resource,
        position in eis)`` high to low, is distinct per entry, so one
        sort of the words orders all three and their low bits are then
        the position in ``eis`` of each entry's EI. Per EI the words are
        an offset plus a ramp of one chronon per entry. The words fit 63
        bits (chronons x resources < 2**27, the grid's bound); offset
        and ramp are int64 arithmetic modulo 2**64, so their sum is
        exact even where one of them wraps."""
        t0 = int(self.act_chronons[lo])
        t1 = int(self.act_chronons[hi - 1])
        first = np.maximum(first, t0)
        width = np.minimum(until, t1) - first + 1
        total = int(width.sum())
        R = self.rid_space
        b = int(eis.size).bit_length()
        step = R << b
        offset = ((first - t0) * R + self.ei_res[eis]).astype(np.int64)
        offset <<= b
        offset += np.arange(eis.size, dtype=np.int64)
        offset -= (np.cumsum(width) - width) * step
        at = np.repeat(offset, width)
        del offset
        at += np.arange(0, total * step, step, dtype=np.int64)
        at.sort()
        at &= (1 << b) - 1
        return at

    # ------------------------------------------------------------------
    # Event CSRs (window openings and expiries)
    # ------------------------------------------------------------------

    def _build_events(self, last: int) -> None:
        # Expiry events: the chronon after the deadline, for deadlines
        # inside the epoch.
        xe = np.flatnonzero(self.ei_finish < last).astype(np.int32)
        xe_T = self.ei_finish[xe] + 1
        order = _chronon_order(xe_T, last)
        xe = xe[order]
        xe_T = xe_T[order]
        del order
        bounds = np.nonzero(np.concatenate(
            ([True], xe_T[1:] != xe_T[:-1])))[0] if xe.size else \
            np.zeros(0, dtype=np.int64)
        self.xe_chronons = xe_T[bounds].astype(np.int64)
        self.xe_indptr = np.concatenate((bounds, [xe.size])).astype(np.int64)
        self.xe_e = xe

        # Within each expiry flush the entries are state-major (stable
        # sort of an EI-index-ordered list), so per-state segments are
        # contiguous: precompute their starts so the engine can OR-reduce
        # doom updates to unique states (duplicate targets would make a
        # buffered fancy |= lossy). The expiry CSR is int32, positions
        # and states bounded by E.
        xe_state = self.ei_state[xe]
        seg = np.ones(xe.size, dtype=bool)
        seg[1:] = (xe_T[1:] != xe_T[:-1]) | (xe_state[1:] != xe_state[:-1])
        self.xg_starts = np.flatnonzero(seg).astype(np.int32)
        self.xg_state = xe_state[self.xg_starts]
        self.xg_indptr = np.searchsorted(
            self.xg_starts, self.xe_indptr).astype(np.int64)

    def _build_openings(self, last: int) -> None:
        """Every EI's state in true-start order, ``op_state``, and per
        chronon ``T`` the offset ``op_indptr[T]`` of the first EI opening
        at or after it — an EI past the epoch opens at none. A chronon
        loop that adds ``op_state[op_indptr[T0]:op_indptr[T + 1]]`` into
        a per-state count at each chronon it reaches keeps M-EDF's
        ``started`` (siblings with ``start <= T``) as the reference
        counts it: a state registered after some of its EIs opened, or
        closed, arrives with them counted. Built after the expiry CSR,
        whose temporaries are gone by then."""
        opens = np.minimum(self.ei_start, last + 1)
        self.op_state = self.ei_state[_chronon_order(opens, last + 1)]
        self.op_indptr = np.concatenate((
            [0], np.cumsum(np.bincount(opens, minlength=last + 2)[:-1])
        )).astype(np.int32)

    # ------------------------------------------------------------------
    # Packed-key layout
    # ------------------------------------------------------------------

    def _build_keys(self, last: int) -> None:
        K = last
        start_max = int(self.ei_start.max()) if self.E else 1
        finish_max = int(self.ei_finish.max()) if self.E else 1
        rank_max = int(self.st_rank.max()) if self.S else 1
        size_max = int(self.st_size.max()) if self.S else 1
        rid_max = int(self.ei_res.max()) if self.E else 0
        #: Each feature's ``(lo, hi)`` over every candidate, which rows'
        #: offsets and spans are read off (``chronon`` and ``const`` are
        #: left out). ``deadlines`` adds each uncaptured sibling's
        #: deadline, less ``T <= K`` once it is open.
        self.feature_ranges = {
            "finish": (0, finish_max),
            "start": (0, start_max),
            "rank": (0, rank_max),
            "need": (0, size_max),
            "captured": (0, size_max),
            "deadlines": (-K * size_max,
                          int(self.init_sum.max()) if self.S else 1),
            "pool": (0, self.n_max),
        }
        # The score field holds the widest row of any registered policy.
        score_max = max(hi - lo for lo, hi in (
            key.score_range(self.feature_ranges)
            for key in registered_keys()))

        self.start_bits = _bits(start_max)
        self.finish_bits = _bits(finish_max)
        self.score_bits = _bits(score_max)
        self.n_bits = _bits(self.n_max)
        self.rid_bits = _bits(rid_max)
        # One layout, low to high: rid | start | n_max - n | finish | score.
        self.start_shift = self.rid_bits
        self.n_shift = self.start_shift + self.start_bits
        self.finish_shift = self.n_shift + self.n_bits
        self.score_shift = self.finish_shift + self.finish_bits
        key_bits = self.score_shift + self.score_bits
        if key_bits > _MAX_KEY_BITS:
            raise BatchUnsupported(
                f"packed selection key needs {key_bits} bits (> "
                f"{_MAX_KEY_BITS}): score {self.score_bits} + finish "
                f"{self.finish_bits} + pool size {self.n_bits} + start "
                f"{self.start_bits} + resource id {self.rid_bits}, for "
                f"horizon {K}, scores <= {score_max}, pools <= "
                f"{self.n_max}, resources <= {rid_max}")

        # Report scaffolding shared by every lane (with profile_totals):
        # totals never depend on the run, only on the instance.
        # rank_totals keeps each size at its first appearance in seq order.
        count = np.bincount(self.st_size)
        seen = np.full(count.size, self.S, dtype=np.int64)
        np.minimum.at(seen, self.st_size, np.arange(self.S, dtype=np.int64))
        sizes = np.flatnonzero(count)
        sizes = sizes[np.argsort(seen[sizes])]
        self.rank_totals: dict[int, int] = dict(
            zip(sizes.tolist(), count[sizes].tolist()))

    # ------------------------------------------------------------------

    def score_offset(self, key: ScoreKey) -> int:
        """What lifts row ``key``'s lowest score on this instance to 0;
        :class:`BatchUnsupported` if its scores span more than the score
        field (the widest registered policy's row) holds."""
        lo, hi = key.score_range(self.feature_ranges)
        if (hi - lo) >> self.score_bits:
            raise BatchUnsupported(
                f"score row {key} spans {hi - lo} scores on this instance, "
                f"beyond the {self.score_bits}-bit score field")
        return -lo

    def pack_key(self, key: ScoreKey, features: dict[str, np.ndarray],
                 word: np.ndarray) -> None:
        """Fill ``word`` (int64) with row ``key``'s candidate keys of the
        entries whose per-entry ``features`` (int32; ``finish`` and
        ``start`` always among them) are given: the row's score over
        the features it weighs, plus its offset, with the finish and
        start fields below it — ``((score << finish_bits | finish) <<
        (n_bits + start_bits) | start) << rid_bits``, the packed word
        with the pool-size and resource-id fields zero. Summed and
        shifted in ``word``'s int64: int32 shifted or scaled by a Python
        int stays int32 and would wrap."""
        word[:] = self.score_offset(key)
        for feature, values in features.items():
            weight = getattr(key, feature)
            if weight == 1:
                word += values
            elif weight:
                word += np.multiply(values, weight, dtype=np.int64)
        word <<= self.score_shift - self.finish_shift
        word |= features["finish"]
        word <<= self.finish_shift - self.start_shift
        word |= features["start"]
        word <<= self.start_shift

    def resource_key(self, best: np.ndarray, pool_n: np.ndarray,
                     grp_rid: np.ndarray) -> np.ndarray:
        """Per-pool rank keys ``(score, finish, n_max - n, start, rid)``.

        ``best`` holds each pool's minimal candidate key — the same word
        with the pool-size and resource-id fields zero, which are OR-ed
        in — or ``INF_KEY`` where the pool is empty, which stays
        ``INF_KEY`` (every bit a key can use is already set).
        """
        key = self.n_max - pool_n
        key <<= self.n_shift
        key |= grp_rid
        key |= best
        return key

    # ------------------------------------------------------------------
    # Fault-plane columns (lazy, cached per fault-spec parameter)
    # ------------------------------------------------------------------

    def fault_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-group ``(chronon, resource id)`` columns.

        One entry per per-chronon per-resource group — the granularity at
        which the fault model draws: a :class:`~repro.faults.model`
        decision for attempt 0 depends only on the probed resource and
        the chronon, both constant within a group.
        """
        return self._grp_T, self.grp_rid

    def fault_draws(self) -> FaultDraws:
        """This lowering's on-demand draw table (see :class:`FaultDraws`)."""
        if self._fault_draws is None:
            self._fault_draws = FaultDraws(*self.fault_layout())
        return self._fault_draws

    def commit_tie(self) -> np.ndarray:
        """Per-EI rank in the reference's candidate tie-break order.

        The packed candidate keys resolve equal (score, finish, start)
        positionally — fine for pool aggregation, where only the best
        *key* matters — but a failed probe commits the selected
        candidate's *identity*, and the reference breaks those ties by
        ``(profile_id, tinterval_id, seq, ei_id)``. This column ranks
        every EI in that order so the commit hook can pick the same
        candidate among key-equal ones.
        """
        if self._commit_tie is None:
            ei_id = (np.arange(self.E, dtype=np.int64)
                     - self._ei_ptr[self.ei_state])
            seqs = self.ei_state
            order = np.lexsort((ei_id, seqs, self.st_tid[seqs],
                                self.st_profile[seqs]))
            tie = np.empty(self.E, dtype=np.int64)
            tie[order] = np.arange(self.E, dtype=np.int64)
            self._commit_tie = tie
        return self._commit_tie

    def outage_column(self, outages: tuple) -> np.ndarray:
        """Boolean per-group column: the group's resource is down then.

        ``outages`` is a :class:`~repro.faults.model.FaultSpec.outages`
        tuple.
        """
        key = ("outage", outages)
        column = self._fault_cols.get(key)
        if column is None:
            grp_T, grp_rid = self.fault_layout()
            column = np.zeros(grp_T.size, dtype=bool)
            for outage in outages:
                mask = grp_rid == outage.resource_id
                mask &= grp_T >= outage.start
                if outage.last is not None:
                    mask &= grp_T <= outage.last
                column |= mask
            self._fault_cols[key] = column
        return column
