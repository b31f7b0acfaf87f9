"""Sharded proxy federation over the columnar candidate index.

:func:`federated_run` advances one online run as ``K`` proxy shards plus
a :class:`~repro.runtime.federation.ShardCoordinator`. The consistent-
hash ring assigns every resource to a shard; each shard owns the slice
of the columnar per-resource candidate index (see
:mod:`repro.simulation.columnar`) covering its resources — contiguous
copies of the static key columns, so per-chronon key computation touches
only shard-local memory. The index arrives one
:class:`~repro.simulation.columnar.ActivityWindow` at a time and the
slices are cut per window, so the federation never holds more of it than
a monolith would. T-intervals whose EIs span shards (allowed by
the paper's model) are handled by *state replication*: capture, doom
and M-EDF satisfiability aggregates live in a :class:`_Replica` that
every shard reads and the coordinator's per-chronon capture broadcast
keeps in sync, so a shard scores its local EIs with exactly the global
state a monolith would use.

Each chronon runs the propose/merge protocol:

1. every shard proposes its ``min(C_j, |owned pools|)`` best resource
   rank keys (packed monolith tie-break order, ending in the resource
   id — globally unique);
2. the coordinator merges proposals and takes the global top ``C_j`` —
   provably the monolith engine's own selection, since the global
   ``nsmallest`` of a union is the ``nsmallest`` of per-shard
   ``nsmallest``s (non-preemptive runs repeat the merge for the
   fresh-state pool, excluding already-probed resources);
3. the coordinator books the chronon's budget on the per-shard ledgers:
   nominal :func:`~repro.runtime.sharding.split_budget` shares,
   realized demand, and the deterministic
   :func:`~repro.runtime.sharding.steal_plan` transfers that moved
   unspendable residual budget to the most oversubscribed shards;
4. capture effects (the probed pools' candidate entries) are broadcast
   and absorbed by every replica.

Because selection is coordinator-exact, a federated run is
**probe-for-probe identical to the monolith engines for every shard
count** — gained-completeness degradation is zero by construction (the
federation benchmark reports it per shard count to prove it) — and the
ledgers record the work-stealing that realized the monolith schedule.

Fault layers (drops, outages, rate limits, retries, breaker) execute
coordinator-side through the columnar fault plane, RNG-stream exact
with the fast engine. The shards advance in-process: a forked worker
pool was measured on the catalog (2 vCPUs, K=4) at 2.2x *slower* than
the in-process loop — the per-chronon broadcast costs more than the
proposals it parallelises — and removed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.online.base import Policy
from repro.runtime.federation import ShardCoordinator
from repro.runtime.sharding import ShardLoad
from repro.simulation.batch import (
    FaultLane,
    _FaultPlane,
    _finalize,
    _make_lanes,
)
from repro.simulation.columnar import (
    ActivityWindow,
    ColumnarInstance,
    INF_KEY,
)
from repro.simulation.result import SimulationResult

__all__ = ["FederatedResult", "federated_run"]

_DYNAMIC = frozenset({"mrsf", "anti", "coverage", "medf"})


@dataclass(frozen=True)
class FederatedResult:
    """Outcome of one federated run plus the federation's accounting.

    ``result`` is bit-identical to what the monolith fast engine
    produces for the same arguments. ``loads`` carries each shard's
    owned-resource count, routed probes and budget ledger;
    ``stolen_budget`` totals the units moved by work-stealing.
    ``lower_seconds`` is the part of ``result.runtime_seconds`` spent
    lowering: every activity window the run built, plus the constructor
    unless the caller passed a prebuilt ``columnar=`` (whose own
    ``lower_seconds`` says what that cost).
    """

    result: SimulationResult
    shards: int
    loads: tuple[ShardLoad, ...]
    stolen_budget: int
    steal_transfers: int
    lower_seconds: float

    @property
    def gc(self) -> float:
        return self.result.gc


class _Replica:
    """Full capture/doom/M-EDF state: what every shard reads and the
    capture broadcast updates."""

    __slots__ = ("col", "alive", "cap_count", "capsum", "sees_doom",
                 "undoomed", "need_medf", "_xe_at", "_n_xe",
                 "_xe_chronons", "_xe_indptr", "_xg_indptr")

    def __init__(self, col: ColumnarInstance, sees_doom: bool,
                 need_medf: bool) -> None:
        self.col = col
        self.alive = np.ones(col.E, dtype=bool)
        self.cap_count = np.zeros(col.S, dtype=np.int64)
        self.capsum = np.zeros(col.S, dtype=np.int64) if need_medf \
            else None
        self.need_medf = need_medf
        self.sees_doom = sees_doom
        self.undoomed = np.ones(col.S, dtype=bool)
        self._xe_at = 0
        self._n_xe = col.xe_chronons.size if sees_doom else 0
        self._xe_chronons = col.xe_chronons.tolist()
        self._xe_indptr = col.xe_indptr.tolist()
        self._xg_indptr = col.xg_indptr.tolist()

    def flush_expiry(self, T: int) -> None:
        """Apply every expiry event due by ``T`` to the doom flags."""
        col = self.col
        while (self._xe_at < self._n_xe
               and self._xe_chronons[self._xe_at] <= T):
            at = self._xe_at
            self._xe_at += 1
            lo = self._xe_indptr[at]
            hi = self._xe_indptr[at + 1]
            glo = self._xg_indptr[at]
            ghi = self._xg_indptr[at + 1]
            xe = col.xe_e[lo:hi]
            misses = self.alive[xe]
            seg = col.xg_starts[glo:ghi] - lo
            if seg.size != xe.size:
                misses = np.logical_or.reduceat(misses, seg)
            # One segment per state within a flush, so the fancy &= has
            # no duplicate targets.
            self.undoomed[col.xg_state[glo:ghi]] &= ~misses

    def absorb(self, win: ActivityWindow, entries: np.ndarray) -> np.ndarray:
        """Apply broadcast capture effects (candidate activity entries
        of the probed pools); returns the captured states."""
        self.alive[win.act_e[entries]] = False
        states = win.ps_act[entries]
        np.add.at(self.cap_count, states, 1)
        if self.need_medf:
            np.add.at(self.capsum, states, win.fin_act[entries])
        return states


def _entry_keys(col: ColumnarInstance, win: ActivityWindow, rep: _Replica,
                kind: str, entries: np.ndarray, states: np.ndarray, T: int,
                cand: np.ndarray, gs_rel: np.ndarray,
                gof: np.ndarray) -> np.ndarray:
    """Candidate keys for arbitrary activity entries (the slow, generic
    path — used only for the rare commit-tie recompute under faults;
    shard slices precompute their static columns instead)."""
    if kind not in _DYNAMIC:
        return win.hi_static[kind][entries]
    if kind == "mrsf":
        return (win.hi_static["srank"][entries]
                - (rep.cap_count[states] << col.fs_bits))
    if kind == "anti":
        return (win.hi_static["anti"][entries]
                + (rep.cap_count[states] << col.fs_bits))
    if kind == "coverage":
        n_tot = np.add.reduceat(cand, gs_rel).astype(np.int64)
        return (((col.n_max - n_tot[gof]) << col.fs_bits)
                + win.finstart_act[entries])
    # medf
    base = (win.init_sum_act[entries] + col.medf_off
            - T * win.started_act[entries])
    score = base - rep.capsum[states] + T * rep.cap_count[states]
    return (score << col.fs_bits) + win.finstart_act[entries]


class _ShardSlice:
    """One shard's slice of one window of the columnar candidate index.

    Owns contiguous copies of the static key columns for the activity
    entries of its resources' pools, plus the per-chronon group layout,
    so a proposal touches only shard-local memory plus the replicated
    per-state aggregates. Pool ids (``gids``) are window-local.
    """

    def __init__(self, col: ColumnarInstance, win: ActivityWindow,
                 gids: np.ndarray, kind: str) -> None:
        self.kind = kind
        self.n_max = col.n_max
        self.fs_bits = col.fs_bits
        self.gids = gids
        self.grids = win.grp_rid[gids]
        sizes = win.grp_sizes[gids]
        entries = _entries_of(win, gids)
        # Group starts within the slice (+ total sentinel).
        self.gs = np.concatenate(([0], np.cumsum(sizes)))
        self.gof = np.repeat(np.arange(gids.size, dtype=np.int64), sizes)
        # Per-chronon pointers into the (chronon-ordered) group list.
        self.gptr = np.searchsorted(gids, win.grp_indptr)
        # Shard-local copies of the columns keys are computed from.
        self.ae = win.act_e[entries]
        self.ps = win.ps_act[entries]
        if kind in ("mrsf", "anti"):
            base_kind = "srank" if kind == "mrsf" else "anti"
            self.hi0 = win.hi_static[base_kind][entries]
        elif kind == "coverage":
            self.hi0 = win.finstart_act[entries]
        elif kind == "medf":
            self.hi0 = win.finstart_act[entries]
            self.base0 = win.init_sum_act[entries] + col.medf_off
            self.started = win.started_act[entries]
        else:
            self.hi0 = win.hi_static[kind][entries]
        self.resource_key = col.resource_key

    def propose(self, rep: _Replica, committed: np.ndarray | None,
                preemptive: bool, ti: int, T: int, budget: int,
                open_until: np.ndarray | None):
        """This shard's chronon proposals: phase-1 (and, non-preemptive,
        phase-2) ``(keys, pool gids)``, best first, ``INF_KEY`` pools
        dropped."""
        empty = np.zeros(0, dtype=np.int64)
        glo = int(self.gptr[ti])
        ghi = int(self.gptr[ti + 1])
        if glo == ghi or budget <= 0:
            return empty, empty, empty, empty
        elo = int(self.gs[glo])
        ehi = int(self.gs[ghi])
        states = self.ps[elo:ehi]
        cand = rep.alive[self.ae[elo:ehi]]
        if rep.sees_doom:
            cand &= rep.undoomed[states]
        if not cand.any():
            return empty, empty, empty, empty
        gs_rel = self.gs[glo:ghi] - elo
        kind = self.kind
        if kind == "mrsf":
            hi = self.hi0[elo:ehi] - (rep.cap_count[states]
                                      << self.fs_bits)
        elif kind == "anti":
            hi = self.hi0[elo:ehi] + (rep.cap_count[states]
                                      << self.fs_bits)
        elif kind == "coverage":
            n_tot = np.add.reduceat(cand, gs_rel).astype(np.int64)
            gof = self.gof[elo:ehi] - glo
            hi = (((self.n_max - n_tot[gof]) << self.fs_bits)
                  + self.hi0[elo:ehi])
        elif kind == "medf":
            score = (self.base0[elo:ehi] - T * self.started[elo:ehi]
                     - rep.capsum[states] + T * rep.cap_count[states])
            hi = (score << self.fs_bits) + self.hi0[elo:ehi]
        else:
            hi = self.hi0[elo:ehi]

        if preemptive:
            keys1, pools1 = self._rank(hi, cand, gs_rel, glo, ghi,
                                       budget, T, open_until)
            return keys1, pools1, empty, empty
        if committed is not None:
            comm = committed[states]
        else:
            comm = rep.cap_count[states] > 0
        keys1, pools1 = self._rank(hi, cand & comm, gs_rel, glo, ghi,
                                   budget, T, open_until)
        keys2, pools2 = self._rank(hi, cand & ~comm, gs_rel, glo, ghi,
                                   budget, T, open_until)
        return keys1, pools1, keys2, pools2

    def _rank(self, hi: np.ndarray, pool: np.ndarray,
              gs_rel: np.ndarray, glo: int, ghi: int, budget: int,
              T: int, open_until: np.ndarray | None):
        masked = np.where(pool, hi, INF_KEY)
        best = np.minimum.reduceat(masked, gs_rel)
        pool_n = np.add.reduceat(pool, gs_rel).astype(np.int64)
        grids = self.grids[glo:ghi]
        key = self.resource_key(best, pool_n, grids)
        if open_until is not None:
            key[open_until[grids] >= T] = INF_KEY
        G = key.size
        take = min(budget, G)
        if G <= 192:
            order = np.argsort(key)[:take]
        else:
            part = np.argpartition(key, take - 1)[:take]
            order = part[np.argsort(key[part])]
        keys = key[order]
        valid = keys != INF_KEY
        return keys[valid], self.gids[glo:ghi][order[valid]]


# ----------------------------------------------------------------------
# The federated chronon loop
# ----------------------------------------------------------------------

def federated_run(profiles: ProfileSet, epoch: Epoch,
                  budget: BudgetVector, policy: Policy, *,
                  preemptive: bool = True, shards: int = 4,
                  coordinator: ShardCoordinator | None = None,
                  faults=None, retry=None, breaker=None,
                  columnar: ColumnarInstance | None = None,
                  ) -> FederatedResult:
    """Run one online simulation as a K-shard proxy federation.

    Returns a :class:`FederatedResult` whose ``result`` is
    probe-for-probe identical to
    ``run_online(..., engine="fast")`` for the same arguments — for any
    shard count — plus the federation's per-shard loads and
    work-stealing ledger.

    Raises :class:`~repro.simulation.columnar.BatchUnsupported` for
    policies without a columnar scoring kind (e.g. RANDOM) and
    instances whose packed keys overflow — such runs need the monolith
    fast engine.
    """
    started = time.perf_counter()
    col = columnar if columnar is not None else \
        ColumnarInstance.build(profiles, epoch)
    fault = None
    if faults is not None or retry is not None or breaker is not None:
        fault = FaultLane(faults, retry, breaker)
    lane_objs = _make_lanes([(policy, preemptive, budget, 0, fault)])
    lane = lane_objs[0]
    plane = _FaultPlane(col, lane_objs) if lane.fault_active else None

    coord = coordinator if coordinator is not None else \
        ShardCoordinator(shards)
    K = coord.shards
    owner = coord.assign(col.rid_space)

    rep = _Replica(col, lane.sees_doom, lane.kind == "medf")
    committed = np.zeros(col.S, dtype=bool) \
        if plane is not None and not preemptive else None

    if lane.budget.is_constant():
        budgets = [lane.budget.default] * col.act_chronons.size
    else:
        budgets = [lane.budget.at(T) for T in col.act_chronons.tolist()]

    schedule: dict[int, set[int]] = {}
    built, window_seconds = col.windows_built, col.window_seconds

    for win in col.windows():
        ownerg = owner[win.grp_rid]
        slices = [
            _ShardSlice(col, win, np.nonzero(ownerg == shard)[0], lane.kind)
            for shard in range(K)]
        act_chronons = win.act_chronons.tolist()
        grp_indptr = win.grp_indptr.tolist()

        for ti in range(win.n_act):
            T = act_chronons[ti]
            rep.flush_expiry(T)
            C = budgets[win.first_chronon + ti]
            if C <= 0:
                continue
            open_until = None
            if plane is not None and plane.blocking:
                open_until = plane.open_until[0]

            per_shard = [
                piece.propose(rep, committed, preemptive, ti, T, C,
                              open_until)
                for piece in slices]

            winners = ShardCoordinator.merge_proposals(
                [(keys1, pools1) for keys1, pools1, _k2, _p2 in per_shard
                 if pools1.size], C)
            if not preemptive and winners.size < C:
                second = ShardCoordinator.merge_proposals(
                    [(keys2, pools2) for _k1, _p1, keys2, pools2
                     in per_shard if pools2.size],
                    C - winners.size, exclude=winners)
                decisions = np.concatenate((winners, second))
            else:
                decisions = winners
            if decisions.size == 0:
                continue

            coord.settle(C, np.bincount(ownerg[decisions],
                                        minlength=K).tolist())

            glo = grp_indptr[ti]
            if plane is None:
                captured = decisions
            else:
                grids_T = win.grp_rid[glo:grp_indptr[ti + 1]]
                positions = np.arange(decisions.size, dtype=np.int64)
                cap_l, cap_g, failed = plane.execute(
                    T, win.first_group + glo, grids_T,
                    np.zeros_like(decisions), decisions - glo, positions,
                    np.array([C], dtype=np.int64))
                if committed is not None \
                        and winners.size < decisions.size:
                    _commit_failed(col, win, rep, lane.kind, committed,
                                   decisions, winners.size, failed, T)
                captured = glo + cap_g

            if captured.size:
                entries = _entries_of(win, captured)
                mask = rep.alive[win.act_e[entries]]
                if rep.sees_doom:
                    mask &= rep.undoomed[win.ps_act[entries]]
                entries = entries[mask]
                for rid in win.grp_rid[captured].tolist():
                    schedule.setdefault(rid, set()).add(T)
                states = rep.absorb(win, entries)
                if committed is not None and states.size:
                    committed[states] = True

        # One window in flight (see ``batch._advance``): drop this
        # window and its slices before the generator builds the next.
        del win, slices, ownerg
        grids_T = None

    if plane is not None:
        plane.finish()
        stats = plane.lane_stats()[0]
    else:
        stats = (0, 0, 0)
    elapsed = time.perf_counter() - started
    result = _finalize(col, lane, schedule, rep.cap_count, rep.alive,
                       elapsed, stats, col.windows_built - built)
    owned = np.bincount(owner[np.unique(col.grp_rid)],
                        minlength=K).tolist()
    loads = tuple(coord.loads(resources=owned))
    return FederatedResult(
        result=result, shards=K, loads=loads,
        stolen_budget=coord.ledger.transferred_units,
        steal_transfers=coord.ledger.transfers,
        lower_seconds=col.window_seconds - window_seconds
        + (0.0 if columnar is not None else col.lower_seconds))


def _entries_of(win: ActivityWindow, gids: np.ndarray) -> np.ndarray:
    """Activity-entry indices of the given pools (window-local ids)."""
    sizes = win.grp_sizes[gids]
    ramp = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    return np.repeat(win.grp_starts[gids], sizes) + ramp


def _commit_failed(col: ColumnarInstance, win: ActivityWindow,
                   rep: _Replica, kind: str, committed: np.ndarray,
                   decisions: np.ndarray, n_phase1: int,
                   failed: np.ndarray, T: int) -> None:
    """A failed fresh-pool probe still commits its selected t-interval.

    Mirrors the batch engine's commitment hook: the selected candidate
    is the pool's key minimum, key-equal ties resolved by the fast
    engine's ``(profile_id, tinterval_id, seq, ei_id)`` order.
    """
    fail2 = np.nonzero(failed[n_phase1:])[0]
    if not fail2.size:
        return
    tie = col.commit_tie()
    for j in fail2.tolist():
        gid = int(decisions[n_phase1 + j])
        entries = win.grp_starts[gid] + np.arange(win.grp_sizes[gid],
                                                  dtype=np.int64)
        states = win.ps_act[entries]
        cand = rep.alive[win.act_e[entries]]
        if rep.sees_doom:
            cand &= rep.undoomed[states]
        pool2 = cand & ~committed[states]
        keys = np.where(
            pool2,
            _entry_keys(col, win, rep, kind, entries, states, T, cand,
                        np.zeros(1, dtype=np.int64),
                        np.zeros(entries.size, dtype=np.int64)),
            INF_KEY)
        winners = np.nonzero(keys == keys.min())[0]
        best = int(winners[np.argmin(tie[win.act_e[entries]][winners])])
        committed[states[best]] = True
