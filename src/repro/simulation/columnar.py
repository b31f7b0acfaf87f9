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
from typing import Sequence

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
    for the group's (local) resource and chronon, or is NaN while no
    probe has asked for it. A draw depends on its key alone — not on
    probe order, nor on whether the fast engine would have consumed it
    (a skipped channel consumes nothing) — so filling entries lazily and
    in any order is stream-exact, and the table is a pure cache shared by
    every block and shard run on the lowering. Row 0 is the sentinel
    2.0, which no probability in [0, 1] ever exceeds: lanes that never
    consult a channel read it.
    """

    def __init__(self, grp_T: np.ndarray, grp_rid_local: np.ndarray) -> None:
        self._grp_T = grp_T
        self._grp_rid = grp_rid_local
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


class ColumnarInstance:
    """Flat-array form of one or more (profiles, epoch) instances.

    Build once with :meth:`build` (single instance) or :meth:`build_many`
    (a *mega block*: several instances — typically the repetitions of a
    sweep cell — concatenated into one column space). The result is
    immutable and shared by every lane of every block run on it (all
    per-run state lives in the engine, not here).

    Multi-instance concatenation keeps instances disjoint by
    construction: resource ids are offset per instance
    (``rid' = rid + instance * rid_stride``) so per-resource groups never
    mix instances, and states keep their within-instance (arrival,
    creation) order under the global stable arrival sort, so the global
    state/EI indices order each instance's tie-breaks exactly as its
    standalone layout would. The engine confines a lane to its instance
    by pre-marking every foreign EI as already captured — cross-instance
    isolation costs nothing per chronon.
    """

    def __init__(self, profile_sets: Sequence[ProfileSet],
                 epoch: Epoch) -> None:
        self.profile_sets = list(profile_sets)
        self.n_inst = len(self.profile_sets)
        self.epoch = epoch
        last = epoch.last

        # ------------------------------------------------------------------
        # States in (clamped arrival, creation order) — the seq order.
        # ------------------------------------------------------------------
        st_arrival: list[int] = []
        st_rank: list[int] = []
        st_profile: list[int] = []
        st_size: list[int] = []
        st_inst: list[int] = []
        st_tid: list[int] = []
        etas = []
        rid_max = 0
        for inst, profiles in enumerate(self.profile_sets):
            for profile in profiles:
                rank = profile.rank
                for eta in profile:
                    st_arrival.append(min(eta.earliest_start, last))
                    st_rank.append(rank)
                    st_profile.append(eta.profile_id)
                    st_size.append(len(eta))
                    st_inst.append(inst)
                    st_tid.append(eta.tinterval_id)
                    etas.append(eta)
                    for ei in eta:
                        if ei.resource_id > rid_max:
                            rid_max = ei.resource_id
        #: Resource-id namespace width per instance.
        self.rid_stride = rid_max + 1
        order = sorted(range(len(etas)), key=lambda i: st_arrival[i])
        self.S = len(etas)
        self.st_arrival = np.array([st_arrival[i] for i in order],
                                   dtype=np.int64)
        self.st_rank = np.array([st_rank[i] for i in order], dtype=np.int64)
        self.st_profile = np.array([st_profile[i] for i in order],
                                   dtype=np.int64)
        self.st_size = np.array([st_size[i] for i in order], dtype=np.int64)
        self.st_inst = np.array([st_inst[i] for i in order], dtype=np.int64)
        self.st_tid = np.array([st_tid[i] for i in order], dtype=np.int64)

        # ------------------------------------------------------------------
        # EIs state-major, within a state in ei_id order.
        # ------------------------------------------------------------------
        ei_res: list[int] = []
        ei_start: list[int] = []
        ei_finish: list[int] = []
        ei_state: list[int] = []
        for seq, i in enumerate(order):
            off = st_inst[i] * self.rid_stride
            for ei in etas[i]:
                ei_res.append(ei.resource_id + off)
                ei_start.append(ei.start)
                ei_finish.append(ei.finish)
                ei_state.append(seq)
        self.E = len(ei_res)
        self.ei_res = np.array(ei_res, dtype=np.int64)
        self.ei_start = np.array(ei_start, dtype=np.int64)
        self.ei_finish = np.array(ei_finish, dtype=np.int64)
        self.ei_state = np.array(ei_state, dtype=np.int64)
        self.ei_inst = self.st_inst[self.ei_state]
        # M-EDF's initial deadline sum counts every EI, active or not.
        self.init_sum = np.zeros(self.S, dtype=np.int64)
        np.add.at(self.init_sum, self.ei_state, self.ei_finish)

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

    @classmethod
    def build(cls, profiles: ProfileSet, epoch: Epoch) -> "ColumnarInstance":
        """Columnar form of one instance (raises :class:`BatchUnsupported`)."""
        return cls([profiles], epoch)

    @classmethod
    def build_many(cls, profile_sets: Sequence[ProfileSet],
                   epoch: Epoch) -> "ColumnarInstance":
        """Columnar form of several same-epoch instances (a mega block)."""
        return cls(profile_sets, epoch)

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
        act_e = np.repeat(np.arange(self.E, dtype=np.int64), width)
        cum = np.concatenate(([0], np.cumsum(width)))
        offset = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], width)
        act_T = np.repeat(self.ei_start, width) + offset
        act_res = self.ei_res[act_e]
        # Chronon-major, then resource, then EI index (the tie-break).
        order = np.lexsort((act_e, act_res, act_T))
        self.act_e = act_e[order]
        act_T = act_T[order]
        act_res = act_res[order]
        self.ps_act = self.ei_state[self.act_e]

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

        # started_act[j]: how many EIs of entry j's state have opened
        # (start <= chronon) by entry j's chronon — M-EDF's "started"
        # aggregate before subtracting a lane's captures. Lane-independent
        # and static per entry (a state's arrival is the min of its EI
        # starts clamped to the epoch, so every windowed EI opens exactly
        # at its own start). The EI layout is state-major, so a fused
        # (state, start) key turns the per-state prefix count into one
        # searchsorted over the whole instance.
        if self.E:
            stride = int(max(self.ei_start.max(), act_T.max() if total
                             else 0)) + 2
            fused = np.sort(self.ei_state * stride + self.ei_start)
            state_ei_ptr = np.searchsorted(
                self.ei_state, np.arange(self.S, dtype=np.int64))
            self.started_act = (
                np.searchsorted(fused, self.ps_act * stride + act_T,
                                side="right")
                - state_ei_ptr[self.ps_act]).astype(np.int64)
        else:
            self.started_act = np.zeros(0, dtype=np.int64)

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

        # Static per-activity-entry columns, aligned with act_e.
        fin = self.ei_finish[self.act_e]
        start = self.ei_start[self.act_e]
        self.finstart_act = (fin << self.start_bits) | start
        rank = self.st_rank[self.ps_act]
        self.hi_static = {
            "sedf": (fin << self.fs_bits) | self.finstart_act,
            "fcfs": (start << self.fs_bits) | self.finstart_act,
            "lff": ((fin + 1) << self.fs_bits) | self.finstart_act,
            "srank": (rank << self.fs_bits) | self.finstart_act,
            # anti-MRSF's offset form: (rank_max - (rank - captured)).
            "anti": ((rank_max - rank) << self.fs_bits) | self.finstart_act,
        }
        self.rank_max = rank_max
        self.init_sum_act = self.init_sum[self.ps_act]
        self.fin_act = fin

        # Report scaffolding shared by every lane of an instance: totals
        # never depend on the run, only on the instance.
        self.profile_totals = [
            {profile.profile_id: len(profile) for profile in profiles}
            for profiles in self.profile_sets]
        self.rank_totals: list[dict[int, int]] = [
            {} for _ in range(self.n_inst)]
        self.inst_sizes = [0] * self.n_inst
        for size, inst in zip(self.st_size.tolist(), self.st_inst.tolist()):
            totals = self.rank_totals[inst]
            totals[size] = totals.get(size, 0) + 1
            self.inst_sizes[inst] += 1

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
        """Per-group ``(chronon, local resource id)`` columns.

        One entry per per-chronon per-resource group — the granularity at
        which the fault model draws: a :class:`~repro.faults.model`
        decision for attempt 0 depends only on the probed resource and
        the chronon, both constant within a group.
        """
        if self._fault_layout is None:
            grp_T = np.repeat(self.act_chronons,
                              np.diff(self.grp_indptr))
            self._fault_layout = (grp_T, self.grp_rid % self.rid_stride)
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
            first = np.searchsorted(self.ei_state, self.ei_state)
            ei_id = np.arange(self.E, dtype=np.int64) - first
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
        tuple; windows name *local* resource ids, so the mask marks the
        matching resource of every instance (a lane only ever consults
        its own instance's groups).
        """
        key = ("outage", outages)
        column = self._fault_cols.get(key)
        if column is None:
            grp_T, grp_rid_local = self.fault_layout()
            column = np.zeros(grp_T.size, dtype=bool)
            for outage in outages:
                mask = grp_rid_local == outage.resource_id
                mask &= grp_T >= outage.start
                if outage.last is not None:
                    mask &= grp_T <= outage.last
                column |= mask
            self._fault_cols[key] = column
        return column
