"""Structure-of-arrays instance form for the batch simulation engine.

:class:`ColumnarInstance` lowers a :class:`~repro.core.profile.ProfileSet`
into flat NumPy columns plus CSR-style index structures, so that
:mod:`repro.simulation.batch` can advance a whole policy lineup with
array operations instead of per-object dispatch. The layout encodes the
fast engine's tie-break order *positionally*:

* **States** (t-intervals) are sorted by (clamped arrival chronon,
  creation order) — exactly the reference's active-list order — so the
  state's array index IS the fast engine's ``seq``.
* **EIs** are laid out state-major, within a state in ``ei_id`` order, so
  the global EI index orders identically to the ``(seq, ei_id)``
  tie-break the engines resolve full score ties with.
* **Per-chronon activity** is a CSR over chronons: for every chronon with
  at least one live window, the indices of the EIs whose
  ``[start, min(finish, K)]`` window contains it, sorted by
  (resource, EI index). Consecutive runs of one resource form the
  *groups* — the per-resource candidate pools — described by a second
  CSR (``grp_*``), so per-resource aggregation is a ``reduceat``.
* **Events** are two more CSRs: EIs bucketed by window opening (``se_*``,
  drives the M-EDF started-count aggregate) and by expiry — the chronon
  after their deadline (``xe_*``, drives doom tracking).

Selection keys are packed into single int64 words so that lexicographic
candidate comparison becomes integer comparison. A candidate's key is
``(score, finish, start)`` packed high-to-low; the per-resource rank key
inserts the pool size (inverted, since bigger pools rank earlier) between
``finish`` and ``start`` and appends the resource id:
``(score, finish, n_max - n, start, rid)``. All supported policy scores
are integers (after a per-policy-kind additive offset making them
non-negative), so the packing is exact. Bit widths are computed from the
instance's actual bounds; if a key cannot fit into 62 bits the
constructor raises :class:`BatchUnsupported` and callers fall back to the
event-indexed fast engine.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch

__all__ = ["BatchUnsupported", "ColumnarInstance", "FaultDraws", "INF_KEY"]

#: Sentinel ranking key for "no candidate" — larger than any packed key.
INF_KEY = np.iinfo(np.int64).max

#: Maximum bits a packed key may use (int64, sign bit spared, and one
#: headroom bit so arithmetic on valid keys can never wrap).
_MAX_KEY_BITS = 62


class BatchUnsupported(Exception):
    """The instance (or lineup) cannot run on the batch engine.

    Raised when packed selection keys would overflow 62 bits (gigantic
    scores, horizons or resource ids). Callers catch it and fall back to
    the fast engine, which has no such bound.
    """


def _bits(max_value: int) -> int:
    """Bits needed to store integers in ``[0, max_value]``."""
    return max(1, int(max_value).bit_length())


class FaultDraws:
    """Keyed fault draws of one lowering, computed on demand.

    ``values`` has one row per ``(seed, channel, attempt)`` key
    (``keys[row]``; handed out by :meth:`row`) and one column per
    per-chronon per-resource group — the granularity the fault model
    draws at. Entry ``[row, g]`` reproduces
    :meth:`repro.faults.model.FaultInjector._draw` bit for bit,
    ``random.Random(f"{seed}:{channel}:{rid}:{T}:{attempt}").random()``
    for the group's resource and chronon, or is NaN while no
    probe has asked for it. A draw depends on its key alone — not on
    probe order, nor on whether the fast engine would have consumed it
    (a skipped channel consumes nothing) — so filling entries lazily and
    in any order is stream-exact, and the table is a pure cache shared by
    every block and shard run on the lowering. Row 0 is the sentinel
    2.0, which no probability in [0, 1] ever exceeds: lanes that never
    consult a channel read it.
    """

    def __init__(self, grp_T: np.ndarray, grp_rid: np.ndarray) -> None:
        self._grp_T = grp_T
        self._grp_rid = grp_rid
        self.keys: list[tuple[int, str, int] | None] = [None]
        self._rows: dict[tuple[int, str, int], int] = {}
        self.values = np.full((1, grp_T.size), 2.0)

    def row(self, seed: int, channel: str, attempt: int = 0) -> int:
        """The row of one draw key (added, all unfilled, when new)."""
        key = (seed, channel, attempt)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self.keys)
            self.keys.append(key)
            self.values = np.vstack(
                (self.values, np.full((1, self._grp_T.size), np.nan)))
        return row

    def _draw(self, row: int, group: int) -> float:
        seed, channel, attempt = self.keys[row]
        return random.Random(
            f"{seed}:{channel}:{self._grp_rid[group]}:"
            f"{self._grp_T[group]}:{attempt}").random()

    def fill(self, rows: np.ndarray, groups: np.ndarray) -> None:
        """Draw the still-unfilled ``(row, group)`` entries, each once."""
        miss = np.isnan(self.values[rows, groups])
        if miss.any():
            width = self.values.shape[1]
            todo = np.unique(rows[miss] * width + groups[miss])
            for row, group in zip((todo // width).tolist(),
                                  (todo % width).tolist()):
                self.values[row, group] = self._draw(row, group)

    def read(self, rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """The draws at ``(rows, groups)``; raises on an unfilled entry."""
        values = self.values[rows, groups]
        if np.isnan(values).any():
            raise LookupError("fault draw read before it was filled")
        return values

    def draw(self, row: int, group: int) -> float:
        """One draw, filled on first use (the sequential retry path)."""
        value = self.values[row, group]
        if value != value:
            value = self.values[row, group] = self._draw(row, group)
        return value


class _StaticKeys(dict):
    """``hi_static``: the static key column of a policy kind, built on
    its first read and kept (an M-EDF run reads none of the five).

    ``self[kind]`` is ``(score << fs_bits) | finstart`` per activity
    entry, the score being the kind's static one; an unknown kind is a
    ``KeyError`` as on any dict. Holds the columns it reads rather than
    the lowering, so the two form no reference cycle.
    """

    def __init__(self, fs_bits: int, start_mask: int, finstart: np.ndarray,
                 fin: np.ndarray, st_rank: np.ndarray, ps_act: np.ndarray,
                 rank_max: int) -> None:
        super().__init__()
        self._parts = (fs_bits, start_mask, finstart, fin, st_rank, ps_act,
                       rank_max)

    def __missing__(self, kind: str) -> np.ndarray:
        fs_bits, start_mask, finstart, fin, st_rank, ps_act, rank_max = \
            self._parts
        if kind == "sedf":
            score = fin
        elif kind == "fcfs":
            score = finstart & start_mask
        elif kind == "lff":
            score = fin + 1
        elif kind == "srank":
            score = st_rank[ps_act]
        elif kind == "anti":
            # anti-MRSF's offset form: (rank_max - (rank - captured)).
            score = rank_max - st_rank[ps_act]
        else:
            raise KeyError(kind)
        column = self[kind] = (score << fs_bits) | finstart
        return column


class ColumnarInstance:
    """Flat-array form of one (profiles, epoch) instance.

    Build once with :meth:`build`. The result is immutable and shared by
    every lane of every block run on it — all the budgets, policies and
    fault rates swept over one generated instance — since all per-run
    state lives in the engine, not here. A different instance (another
    repetition of a setting) is a different lowering and a different
    block: a lane's cost is then proportional to the EIs it can ever
    probe, never to what else was packed beside them.
    """

    def __init__(self, profiles: ProfileSet, epoch: Epoch) -> None:
        began = time.perf_counter()
        if not isinstance(profiles, ProfileSet):
            raise TypeError(
                f"a lowering holds one ProfileSet, got "
                f"{type(profiles).__name__}; lower each instance on its "
                "own")
        self.epoch = epoch
        last = epoch.last

        # ------------------------------------------------------------------
        # Input is the set's EI-row columns in creation order (a
        # hand-built set walks its objects once to produce them);
        # everything below is array arithmetic on those.
        # ------------------------------------------------------------------
        columns = profiles.columns()
        start, res = columns.ei_start, columns.ei_resource
        ptr = columns.tinterval_heads()
        self.S, self.E = S, E = ptr.size, start.size
        size = np.diff(np.append(ptr, E))
        #: Resource ids live in ``[0, rid_space)``.
        self.rid_space = int(res.max()) + 1 if E else 1
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
        # States in (clamped arrival, creation order) — the seq order.
        # ------------------------------------------------------------------
        arrival = np.minimum(np.minimum.reduceat(start, ptr), last)
        order = np.argsort(arrival, kind="stable")
        self.st_arrival = arrival[order]
        self.st_rank = rank[order]
        self.st_profile = eta_profile[order]
        self.st_size = size[order]
        self.st_tid = columns.ei_tinterval[ptr][order]

        # ------------------------------------------------------------------
        # EIs state-major, within a state in ei_id order: a gather of the
        # creation-order columns (each state's EIs are one contiguous run).
        # ------------------------------------------------------------------
        self._ei_ptr = np.cumsum(self.st_size) - self.st_size
        self.ei_state = np.repeat(np.arange(S, dtype=np.int64),
                                  self.st_size)
        gather = np.arange(E, dtype=np.int64) + np.repeat(
            ptr[order] - self._ei_ptr, self.st_size)
        self.ei_res = res[gather]
        self.ei_start = start[gather]
        self.ei_finish = columns.ei_finish[gather]
        # M-EDF's initial deadline sum counts every EI, active or not.
        self.init_sum = np.add.reduceat(self.ei_finish, self._ei_ptr)

        self._build_activity(last)
        self._build_events(last)
        self._build_keys(last)
        # Lazily-built fault-plane columns (see fault_draws /
        # outage_column): pure caches keyed on spec parameters, safe to
        # share across every block run on this lowering.
        self._fault_cols: dict[tuple, np.ndarray] = {}
        self._fault_draws: FaultDraws | None = None
        self._fault_layout: tuple[np.ndarray, ...] | None = None
        self._commit_tie: np.ndarray | None = None
        #: Wall time this constructor took (the build callers wait for).
        self.lower_seconds = time.perf_counter() - began

    @classmethod
    def build(cls, profiles: ProfileSet, epoch: Epoch) -> "ColumnarInstance":
        """Columnar form of one instance (raises :class:`BatchUnsupported`)."""
        return cls(profiles, epoch)

    # ------------------------------------------------------------------
    # Per-chronon activity CSR + per-resource groups
    # ------------------------------------------------------------------

    def _build_activity(self, last: int) -> None:
        # An EI is probeable over [start, min(finish, last)]; EIs opening
        # past the epoch never become candidates (their start event never
        # fires in the fast engine).
        fin_cl = np.minimum(self.ei_finish, last)
        width = np.where(self.ei_start <= last,
                         fin_cl - self.ei_start + 1, 0)
        total = int(width.sum())
        # Entries EI-major first: EI e contributes chronons start..fin_cl.
        ent_e = np.repeat(np.arange(self.E, dtype=np.int64), width)
        ent_T = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(width) - width - self.ei_start, width)
        ent_res = np.repeat(self.ei_res, width)

        # started[j]: how many EIs of entry j's state have opened
        # (start <= chronon) by entry j's chronon — M-EDF's "started"
        # aggregate before subtracting a lane's captures. Lane-independent
        # and static per entry (a state's arrival is the min of its EI
        # starts clamped to the epoch, so every windowed EI opens exactly
        # at its own start). One compare per sibling slot: slot k holds
        # the start of each state's k-th EI, or a never-reached chronon
        # where the state is smaller.
        started = np.zeros(total, dtype=np.int64)
        for slot in range(int(self.st_size.max()) if total else 0):
            has = self.st_size > slot
            opens = np.full(self.S, last + 1, dtype=np.int64)
            opens[has] = self.ei_start[self._ei_ptr[has] + slot]
            started += np.repeat(opens[self.ei_state], width) <= ent_T

        # Chronon-major, then resource, then EI index (the tie-break):
        # the entries are already EI-ascending, so one stable sort on the
        # fused (chronon, resource) key orders all three — a radix sort
        # whenever the key fits 16 bits.
        fused = ent_T * self.rid_space + ent_res
        if (last + 1) * self.rid_space <= 1 << 16:
            fused = fused.astype(np.uint16)
        order = np.argsort(fused, kind="stable")
        self.act_e = ent_e[order]
        act_T = ent_T[order]
        act_res = ent_res[order]
        self.ps_act = self.ei_state[self.act_e]
        self.started_act = started[order]

        new_t = np.empty(total, dtype=bool)
        new_g = np.empty(total, dtype=bool)
        if total:
            new_t[0] = True
            new_t[1:] = act_T[1:] != act_T[:-1]
            new_g[0] = True
            new_g[1:] = new_t[1:] | (act_res[1:] != act_res[:-1])
        t_starts = np.nonzero(new_t)[0]
        self.act_chronons = act_T[t_starts]
        self.act_indptr = np.concatenate((t_starts, [total])).astype(np.int64)
        self.grp_starts = np.nonzero(new_g)[0].astype(np.int64)
        self.grp_rid = act_res[self.grp_starts]
        self.grp_indptr = np.searchsorted(
            self.grp_starts, self.act_indptr).astype(np.int64)
        # Local (within-chronon) group index of each activity entry.
        if total:
            g_global = np.cumsum(new_g) - 1
            spans = np.diff(self.act_indptr)
            self.grp_of = (g_global
                           - np.repeat(self.grp_indptr[:-1], spans)
                           ).astype(np.int64)
            grp_sizes = np.diff(np.concatenate((self.grp_starts, [total])))
            self.n_max = int(grp_sizes.max())
        else:
            self.grp_of = np.zeros(0, dtype=np.int64)
            self.n_max = 1

    # ------------------------------------------------------------------
    # Event CSRs (window openings and expiries)
    # ------------------------------------------------------------------

    def _build_events(self, last: int) -> None:
        # Expiry events: the chronon after the deadline, for deadlines
        # inside the epoch.
        xe = np.nonzero(self.ei_finish < last)[0]
        xe_T = self.ei_finish[xe] + 1
        order = np.argsort(xe_T, kind="stable")
        xe = xe[order]
        xe_T = xe_T[order]
        bounds = np.nonzero(np.concatenate(
            ([True], xe_T[1:] != xe_T[:-1])))[0] if xe.size else \
            np.zeros(0, dtype=np.int64)
        self.xe_chronons = xe_T[bounds]
        self.xe_indptr = np.concatenate((bounds, [xe.size])).astype(np.int64)
        self.xe_e = xe

        # Within each expiry flush the entries are state-major (stable
        # sort of an EI-index-ordered list), so per-state segments are
        # contiguous: precompute their starts so the engine can OR-reduce
        # doom updates to unique states (duplicate targets would make a
        # buffered fancy |= lossy).
        xe_state = self.ei_state[xe]
        n = xe.size
        if n:
            seg = np.concatenate(
                ([True], (xe_T[1:] != xe_T[:-1])
                 | (xe_state[1:] != xe_state[:-1])))
            self.xg_starts = np.nonzero(seg)[0].astype(np.int64)
        else:
            self.xg_starts = np.zeros(0, dtype=np.int64)
        self.xg_state = xe_state[self.xg_starts] if n else \
            np.zeros(0, dtype=np.int64)
        self.xg_indptr = np.searchsorted(
            self.xg_starts, self.xe_indptr).astype(np.int64)


    # ------------------------------------------------------------------
    # Packed-key layout + static key columns
    # ------------------------------------------------------------------

    def _build_keys(self, last: int) -> None:
        K = last
        start_max = int(self.ei_start.max()) if self.E else 1
        finish_max = int(self.ei_finish.max()) if self.E else 1
        rank_max = int(self.st_rank.max()) if self.S else 1
        size_max = int(self.st_size.max()) if self.S else 1
        rid_max = int(self.ei_res.max()) if self.E else 0
        # Largest offset score any supported policy kind can produce:
        # S-EDF/FCFS/LFF are bounded by the horizon, the rank family by
        # the profile rank, Coverage by the largest pool, and M-EDF by
        # sum(finish) - T * started in [-K * size, K * size].
        self.medf_off = K * size_max
        score_max = max(finish_max + 1, start_max, rank_max,
                        self.n_max, 2 * self.medf_off)

        self.start_bits = _bits(start_max)
        self.finish_bits = _bits(finish_max)
        self.score_bits = _bits(score_max)
        self.n_bits = _bits(self.n_max)
        self.rid_bits = _bits(rid_max)
        self.fs_bits = self.finish_bits + self.start_bits
        cand_bits = self.score_bits + self.fs_bits
        res_bits = cand_bits + self.n_bits + self.rid_bits
        if res_bits > _MAX_KEY_BITS:
            raise BatchUnsupported(
                f"packed selection key needs {res_bits} bits (> "
                f"{_MAX_KEY_BITS}): horizon {K}, scores <= {score_max}, "
                f"pools <= {self.n_max}, resources <= {rid_max}")
        self.start_mask = (1 << self.start_bits) - 1

        # Static per-activity-entry columns, aligned with act_e. The
        # per-kind key columns are built when a lane first reads them.
        fin = self.ei_finish[self.act_e]
        start = self.ei_start[self.act_e]
        self.finstart_act = (fin << self.start_bits) | start
        self.rank_max = rank_max
        self.hi_static = _StaticKeys(
            self.fs_bits, self.start_mask, self.finstart_act, fin,
            self.st_rank, self.ps_act, rank_max)
        self.init_sum_act = self.init_sum[self.ps_act]
        self.fin_act = fin

        # Report scaffolding shared by every lane (with profile_totals):
        # totals never depend on the run, only on the instance.
        # rank_totals keeps each size at its first appearance in seq order.
        sizes, seen, count = np.unique(
            self.st_size, return_index=True, return_counts=True)
        first = np.argsort(seen)
        self.rank_totals: dict[int, int] = dict(
            zip(sizes[first].tolist(), count[first].tolist()))

    # ------------------------------------------------------------------

    def resource_key(self, best: np.ndarray, pool_n: np.ndarray,
                     grp_rid: np.ndarray) -> np.ndarray:
        """Pack per-group rank keys ``(score, finish, -n, start, rid)``.

        ``best`` holds each group's minimal candidate key (``INF_KEY``
        where the pool is empty); the minimum of a lexicographic order is
        minimal in its prefix, so the best candidate's (score, finish,
        start) is exactly ``best`` unpacked. Empty pools stay ``INF_KEY``.
        """
        empty = best == INF_KEY
        scorefin = best >> self.start_bits
        start = best & self.start_mask
        key = ((((scorefin << self.n_bits) | (self.n_max - pool_n))
                << self.start_bits) | start) << self.rid_bits
        key |= grp_rid
        return np.where(empty, INF_KEY, key)

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
        if self._fault_layout is None:
            grp_T = np.repeat(self.act_chronons,
                              np.diff(self.grp_indptr))
            self._fault_layout = (grp_T, self.grp_rid)
        return self._fault_layout

    def fault_draws(self) -> FaultDraws:
        """This lowering's on-demand draw table (see :class:`FaultDraws`)."""
        if self._fault_draws is None:
            self._fault_draws = FaultDraws(*self.fault_layout())
        return self._fault_draws

    def commit_tie(self) -> np.ndarray:
        """Per-EI rank in the fast engine's candidate tie-break order.

        The packed candidate keys resolve equal (score, finish, start)
        positionally — fine for pool aggregation, where only the best
        *key* matters — but a failed probe commits the selected
        candidate's *identity*, and the fast engine breaks those ties by
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
