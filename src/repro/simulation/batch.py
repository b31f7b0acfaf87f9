"""Columnar batch simulation engine.

:func:`run_block` advances *many* online runs over one shared instance
— a whole policy lineup × every budget variant × every fault rate swept
over the same generated profiles — in a single chronon-major vectorized
loop. A block holds exactly one instance: another repetition of a
setting is another block, so a lane never scans EIs it cannot probe.
Each independent run is a **lane**: a
``(policy, preemptive, budget)`` triple with its own row in the
``(lanes, ...)`` state matrices (captured flags, per-state capture
counts, commitment and doom flags, M-EDF aggregates). One pass over the
instance's per-chronon activity CSR (see
:mod:`repro.simulation.columnar`) then serves every lane at once:

* candidate masks are boolean array ops over the chronon's activity
  slice;
* per-resource pool aggregation is a ``minimum.reduceat`` over packed
  int64 candidate keys (score, finish, start) — the reference engines'
  full lexicographic candidate order, including the ``(seq, ei_id)``
  tie-break, is encoded positionally, so an integer min IS the
  tie-broken best;
* resource ranking ORs the pool's size and id into that minimum — one
  layout, ``(score, finish, -pool, start, rid)``, from candidate to pool
  — and selects each lane's ``C_j(T)`` smallest with one
  argsort/argpartition;
* non-preemptive lanes run the two-pool rule exactly: committed-state
  pools first, then fresh states for leftover budget;
* captures and the M-EDF aggregates are scatter-adds: per lane the
  captured deadlines, per state (every lane alike) the opened EIs.

Faulty lanes ride the same pass (see :class:`FaultLane`): a chronon's
first attempts are decided as lane-major columns. Because every
:class:`~repro.faults.model.FaultInjector` draw is keyed on ``(seed,
channel, resource, chronon, attempt)`` — independent of probe order —
their draws live in one keyed per-group table on the lowering
(:class:`~repro.simulation.columnar.FaultDraws`), filled only for the
probes actually sent and shared by every lane with the same spec seed.
Outage windows and rate limits are boolean/positional column ops, and
circuit-breaker state is a ``(lanes, resources)`` matrix applied as an
``INF_KEY`` mask before selection. What is not a column — a recording
injector's log, and retries, whose draws and breaker trips happen in
probe order — is the lane's own injector deciding in decision order. The
result is bit-for-bit the reference simulator's, probe for probe (the
``block`` line of the conformance matrix, ``tests/conformance``).

The engine is **schedule-identical** to the reference,
``run_online(engine="reference")`` — the live
:class:`~repro.runtime.proxy.MonitoringProxy` — for every supported
policy (see ``tests/conformance/engines.py``): probe-for-probe,
report-for-report. Unsupported configurations — a subclassed
breaker, policies whose score is not a
:class:`~repro.online.base.ScoreKey` row, instances whose packed keys
overflow — raise
:class:`~repro.simulation.columnar.BatchUnsupported`: ``run_online`` and
the harness fall back to the reference and say so, a churned or
federated run is refused.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.completeness import CompletenessReport
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule
from repro.core.timeline import Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig, _ResourceState
from repro.faults.engine import cascade, drive
from repro.faults.model import FaultInjector, FaultSpec, fault_source
from repro.online.base import EI_LEVEL, Policy, ScoreKey, key_of
from repro.simulation.columnar import (
    ActivityWindow,
    BatchUnsupported,
    ColumnarInstance,
    INF_KEY,
)
from repro.simulation.result import SimulationResult

__all__ = ["BatchUnsupported", "FaultLane", "run_block"]


@dataclass(frozen=True)
class FaultLane:
    """The fault layer of one lane — ``run_online``'s fault arguments.

    ``faults`` is a :class:`~repro.faults.model.FaultSpec`, a
    :class:`~repro.faults.model.FaultInjector` (a *recording* injector
    gets its trace filled exactly as the reference would fill it) or
    None; anything else is a :class:`TypeError` here. A breaker may
    carry state from earlier runs: the plane starts from it and leaves
    its end state behind, as the reference would. A subclassed breaker
    (its methods are its behaviour), and breaker or recording injector
    objects shared across lanes, cannot be lowered and raise
    :class:`BatchUnsupported` — ``run_online`` and the harness fall back
    to the reference simulator.
    """

    faults: FaultSpec | FaultInjector | None = None
    retry: RetryConfig | None = None
    breaker: CircuitBreaker | None = None

    def __post_init__(self) -> None:
        fault_source(self.faults)

    def fresh(self) -> "FaultLane":
        """This layer with a clean breaker of the same parameters: breaker
        state is per run, so each run of a shared template takes one."""
        brk = self.breaker
        return self if brk is None else FaultLane(
            self.faults, self.retry, CircuitBreaker(
                brk.failure_threshold, brk.cooldown, brk.backoff_factor,
                brk.max_cooldown))


@dataclass(frozen=True)
class _Lane:
    policy: Policy
    preemptive: bool
    budget: BudgetVector
    key: ScoreKey
    sees_doom: bool
    spec: FaultSpec | None = None
    injector: FaultInjector | None = None
    max_retries: int = 0
    breaker: CircuitBreaker | None = None

    @property
    def fault_active(self) -> bool:
        # A null spec with no recording still behaves exactly like a
        # reliable lane; a recording injector always needs the plane so
        # its trace gets every (all-ok) decision, and a warm breaker so
        # its quarantine holds from the first chronon.
        brk = self.breaker
        return self.injector is not None or (
            self.spec is not None and not self.spec.is_null) or (
            brk is not None and bool(brk._states or brk.ever_quarantined))


def _lower_fault(fault: object | None, seen: set[int]):
    """Validate one lane's fault layer; -> (spec, injector, retries, brk).

    ``seen`` tracks object identities of stateful components (recording
    injectors, breakers): sharing one across lanes couples the lanes
    sequentially, which a lane-major pass cannot reproduce.
    """
    if fault is None:
        return None, None, 0, None
    if not isinstance(fault, FaultLane):
        raise TypeError(
            f"lane fault layer must be a FaultLane, got "
            f"{type(fault).__name__}")
    spec = injector = None
    faults = fault.faults
    if type(faults) is FaultSpec:
        spec = faults
    elif faults is not None:
        spec = faults.spec
        if faults._record:
            if id(faults) in seen:
                raise BatchUnsupported(
                    "a recording FaultInjector shared across lanes "
                    "interleaves their traces order-dependently")
            seen.add(id(faults))
            injector = faults
    breaker = fault.breaker
    if breaker is not None:
        if type(breaker) is not CircuitBreaker:
            raise BatchUnsupported(
                f"breaker {type(breaker).__name__} is not a plain "
                "CircuitBreaker")
        if id(breaker) in seen:
            raise BatchUnsupported(
                "a CircuitBreaker shared across lanes couples them "
                "sequentially")
        seen.add(id(breaker))
    retries = fault.retry.max_retries if fault.retry is not None else 0
    return spec, injector, retries, breaker


def _make_lanes(col: ColumnarInstance,
                lanes: Sequence[tuple]) -> list[_Lane]:
    out: list[_Lane] = []
    seen: set[int] = set()
    for policy, preemptive, budget, *rest in lanes:
        inst = rest[0] if rest else 0
        fault = rest[1] if len(rest) > 1 else None
        key = key_of(policy)
        if key is None:
            raise BatchUnsupported(
                f"policy {policy.name!r} ({type(policy).__name__}) has no "
                "columnar scoring kind: its score is not a ScoreKey row")
        # A row wider than the lowering's score field would overflow
        # into the fields below it.
        col.score_offset(key)
        if inst != 0:
            raise ValueError(
                f"lane names instance {inst}, but a block holds one "
                "instance (index 0); run every other instance as its own "
                "block")
        fspec, injector, max_retries, breaker = _lower_fault(fault, seen)
        out.append(_Lane(policy, preemptive, budget, key,
                         policy.level != EI_LEVEL, fspec, injector,
                         max_retries, breaker))
    return out


def run_block(
    profiles: ProfileSet,
    epoch: Epoch,
    lanes: Sequence[tuple],
    *,
    columnar: ColumnarInstance | None = None,
) -> list[SimulationResult]:
    """Run every lane over the instance's columns in one vectorized pass.

    Each lane is ``(policy, preemptive, budget)`` — with an optional
    fourth element, the instance index, which must be 0 (a block holds
    one instance; anything else is a :class:`ValueError`), and an
    optional fifth carrying a :class:`FaultLane` (or None) — and gets
    one :class:`SimulationResult`, in lane order, identical to what
    ``run_online(profiles, epoch, budget, policy, preemptive,
    engine="reference")`` (with the lane's faults/retry/breaker) would
    produce — schedule, report, fault stats, breaker end state, and for
    recording injectors the trace of fault records (``injector.trace``),
    probe for probe; its schedule and ``per_profile`` / ``per_rank``
    are built on first read. ``runtime_seconds`` is the block wall time
    split evenly across lanes — an accounting share (per-lane
    attribution is meaningless inside a shared pass), never to be
    reported as a per-policy runtime; ``extras["lowering_windows"]``
    says how many activity windows that time includes building. Over a
    lowering with lifetimes (a churned run, see
    :mod:`repro.simulation.churn`) ``extras["dropped"]`` counts the
    t-intervals cancelled with no missed deadline yet — neither
    captured nor ``expired``; it is 0 when nobody leaves.

    Raises :class:`BatchUnsupported` for policies without a score row
    (:func:`~repro.online.base.key_of`) or with one wider than the
    lowering's score field, instances whose packed keys overflow, or
    fault layers the plane cannot lower (see :class:`FaultLane`).
    """
    started = time.perf_counter()
    col = columnar if columnar is not None else \
        ColumnarInstance.build(profiles, epoch)
    lane_objs = _make_lanes(col, lanes)
    L = len(lane_objs)
    built = col.windows_built
    if not L:
        return []
    state = _advance(col, lane_objs, keep=columnar is not None)
    elapsed = time.perf_counter() - started
    return _finalize(col, lane_objs, *state, elapsed / L,
                     col.windows_built - built)


# ----------------------------------------------------------------------
# The lowered fault plane
# ----------------------------------------------------------------------

class _FaultPlane:
    """Lane-major lowering of the fault layer for one block.

    Attempt-0 decisions vectorize completely: the keyed draws are rows
    of the lowering's on-demand draw table (one per distinct spec seed
    and channel, row 0 a ``2.0`` sentinel no probability can beat;
    each chronon fills the entries its picks read), outages are a
    boolean column, and the rate limit is positional — the injector's
    per-chronon request counter equals ``decision position + 1`` because
    :meth:`FaultInjector.decide` counts *every* call, outage-covered or
    throttled included. Breaker state lives in ``(lane, resource)``
    matrices; attempt-0 successes/failures update it with one fancy
    assignment per chronon (each lane probes a resource at most once per
    chronon, so targets never collide), and only the rare tripping
    entries drop to Python for the bit-exact ``_cooldown_for`` ceil.

    Nothing else is vectorized. A lane-chronon leaves the columns only
    when the lane records a trace, or when a pick failed and the lane
    has retries and budget left; there the lane's whole chronon is the
    :func:`~repro.faults.engine.cascade` of its picks, driven by the
    lane's own injector (its recording one, else one built here): it
    replays attempt 0 of every pick in decision order — filling the
    trace and the rate-limit counter, and checked against the columns —
    then decides the retries. Its breaker calls, attempt 0's included
    (the vectorised update skips a handed-over lane), go through the
    columns' :meth:`_close` / :meth:`_fail` (:class:`_LaneBreaker`).
    """

    def __init__(self, col: ColumnarInstance,
                 lane_objs: list[_Lane]) -> None:
        self.lanes = lane_objs
        L = self.L = len(lane_objs)
        rid_space = col.rid_space

        self.rate_mat = np.zeros((L, rid_space))
        self.t_prob = np.zeros(L)
        self.maxp = np.full(L, np.iinfo(np.int64).max, dtype=np.int64)
        self.max_retries = np.array([ln.max_retries for ln in lane_objs])
        self.records = np.array([ln.injector is not None
                                 for ln in lane_objs])
        self.any_rec = bool(self.records.any())
        # Each lane's decision source off the columns (a lane with no
        # spec never leaves them).
        self.injectors = [ln.injector or FaultInjector(ln.spec, record=False)
                          for ln in lane_objs]
        for i, ln in enumerate(lane_objs):
            spec = ln.spec
            if spec is None:
                continue
            self.rate_mat[i, :] = spec.failure_probability
            for rid, rate in spec.per_resource.items():
                if 0 <= rid < rid_space:
                    self.rate_mat[i, rid] = rate
            self.t_prob[i] = spec.timeout_probability
            if spec.max_probes_per_chronon is not None:
                self.maxp[i] = spec.max_probes_per_chronon

        # Each lane's row in the lowering's on-demand draw table, per
        # channel; row 0 (the 2.0 sentinel) where the lane never
        # consults the channel.
        draws = self.draws = col.fault_draws()

        def rows_of(channel: str, need) -> np.ndarray:
            rows = np.zeros(L, dtype=np.int64)
            for i, ln in enumerate(lane_objs):
                if ln.spec is not None and need(ln.spec, i):
                    rows[i] = draws.row(ln.spec.seed, channel)
            return rows

        self.drop_rows = rows_of(
            "drop", lambda s, i: bool(self.rate_mat[i].any()))
        self.tmo_rows = rows_of(
            "timeout", lambda s, i: s.timeout_probability > 0.0)
        self.any_drop = bool(self.drop_rows.any())
        self.any_tmo = bool(self.tmo_rows.any())

        out_rows = np.zeros(L, dtype=np.int64)
        rows = [np.zeros(col.grp_rid.size, dtype=bool)]
        by_cfg: dict[tuple, int] = {}
        for i, ln in enumerate(lane_objs):
            spec = ln.spec
            if spec is None or not spec.outages:
                continue
            row = by_cfg.get(spec.outages)
            if row is None:
                row = len(rows)
                rows.append(col.outage_column(spec.outages))
                by_cfg[spec.outages] = row
            out_rows[i] = row
        self.OUT = np.vstack(rows)
        self.out_rows = out_rows
        self.any_out = bool(out_rows.any())

        self.has_brk = np.array([ln.breaker is not None
                                 for ln in lane_objs])
        self.any_brk = bool(self.has_brk.any())
        self.thresh = np.full(L, np.iinfo(np.int64).max, dtype=np.int64)
        for i, ln in enumerate(lane_objs):
            if ln.breaker is not None:
                self.thresh[i] = ln.breaker.failure_threshold
        self.consec = np.zeros((L, rid_space), dtype=np.int64)
        self.open_until = np.full((L, rid_space), -1, dtype=np.int64)
        self.trips = np.zeros((L, rid_space), dtype=np.int64)
        # A warm breaker seeds its row — the inverse of finish(); state
        # of a resource outside this instance is never touched.
        for i, ln in enumerate(lane_objs):
            for r, st in (ln.breaker._states.items() if ln.breaker else ()):
                if 0 <= r < rid_space:
                    self.consec[i, r] = st.consecutive_failures
                    self.open_until[i, r] = st.open_until
                    self.trips[i, r] = st.trips
        # Sticky: any breaker ever tripped.
        self.blocking = bool((self.open_until >= 0).any())

        self.failures = np.zeros(L, dtype=np.int64)
        self.retries = np.zeros(L, dtype=np.int64)

    def blocked(self, grids: np.ndarray, T: int) -> np.ndarray | None:
        """(lanes, groups) quarantine mask for this chronon, or None."""
        if not self.blocking:
            return None
        return self.open_until[:, grids] >= T

    def _below(self, rows: np.ndarray, gg: np.ndarray,
               prob: np.ndarray) -> np.ndarray:
        """Attempt-0 draws of the picks, drawn on first use, < ``prob``."""
        return self.draws.gather(rows, gg) < prob

    def _close(self, ls: np.ndarray, rs: np.ndarray) -> None:
        """``record_success`` at distinct ``(lane, resource)`` pairs: it
        pops the whole resource state."""
        self.consec[ls, rs] = 0
        self.trips[ls, rs] = 0
        self.open_until[ls, rs] = -1

    def _fail(self, ls: np.ndarray, rs: np.ndarray, T: int) -> None:
        """``record_failure`` at distinct ``(lane, resource)`` pairs; only
        the rare tripping ones drop to Python, for the bit-exact
        ``_cooldown_for`` ceil."""
        newc = self.consec[ls, rs] + 1
        self.consec[ls, rs] = newc
        trip = newc >= self.thresh[ls]
        if not trip.any():
            return
        self.blocking = True
        for i, r in zip(ls[trip].tolist(), rs[trip].tolist()):
            brk = self.lanes[i].breaker
            self.open_until[i, r] = T + brk._cooldown_for(
                int(self.trips[i, r]))
            self.trips[i, r] += 1
            brk.ever_quarantined.add(r)

    def execute(self, T: int, glo: int, grids: np.ndarray,
                lanes_pk: np.ndarray, g_pk: np.ndarray,
                pos_pk: np.ndarray, k_arr: np.ndarray):
        """Decide every pick of this chronon; -> (cap_lanes, cap_gs, fail).

        ``lanes_pk``/``g_pk``/``pos_pk`` are the chronon's selections as
        (lane, local group, decision position) columns — per lane in
        decision order; ``glo`` is the chronon's first group in the
        lowering's global numbering, which draws and outage columns are
        indexed by. The returned capture columns are the ok picks
        plus retry recoveries; ``fail`` flags the attempt-0 failures
        (recovered or not) for the caller's commitment hook.
        """
        gg = glo + g_pk
        rid = grids[g_pk]
        # A channel no lane consults (every row the sentinel) and an
        # outage no lane has can hit nothing: neither is read at all.
        out = np.zeros(gg.size, dtype=bool)
        thr = pos_pk + 1 > self.maxp[lanes_pk]
        if self.any_out:
            out = self.OUT[self.out_rows[lanes_pk], gg]
            thr &= ~out
        fail = out | thr
        live = ~fail
        if self.any_drop:
            drop = live & self._below(self.drop_rows[lanes_pk], gg,
                                      self.rate_mat[lanes_pk, rid])
            fail |= drop
            live &= ~drop
        if self.any_tmo:
            tmo = live & self._below(self.tmo_rows[lanes_pk], gg,
                                     self.t_prob[lanes_pk])
            fail |= tmo
        ok = ~fail

        # A lane that records, or has a failed pick, retries and budget
        # its decisions left, is handed over to its own cascade.
        handed: list[int] = []
        if self.any_rec or fail.any():
            n_fail = np.bincount(lanes_pk[fail], minlength=self.L)
            left = k_arr - np.bincount(lanes_pk, minlength=self.L)
            scalar = self.records | ((n_fail > 0) & (self.max_retries > 0)
                                     & (left > 0))
            self.failures += np.where(scalar, 0, n_fail)
            handed = np.flatnonzero(scalar).tolist()

        if self.any_brk:
            hb = self.has_brk[lanes_pk]
            if handed:
                hb = hb & ~scalar[lanes_pk]
            s_sel = ok & hb
            if s_sel.any():
                self._close(lanes_pk[s_sel], rid[s_sel])
            f_sel = fail & hb
            if f_sel.any():
                self._fail(lanes_pk[f_sel], rid[f_sel], T)

        extra_l: list[int] = []
        extra_g: list[int] = []
        for i in handed:
            for j in self._decide_lane(i, T, lanes_pk, rid, ok,
                                       int(k_arr[i])):
                extra_l.append(i)
                extra_g.append(int(g_pk[j]))

        cap_l = lanes_pk[ok]
        cap_g = g_pk[ok]
        if extra_l:
            cap_l = np.concatenate(
                (cap_l, np.asarray(extra_l, dtype=np.int64)))
            cap_g = np.concatenate(
                (cap_g, np.asarray(extra_g, dtype=np.int64)))
        return cap_l, cap_g, fail

    def _decide_lane(self, i: int, T: int, lanes_pk: np.ndarray,
                     rid: np.ndarray, ok: np.ndarray,
                     budget: int) -> list[int]:
        """Lane ``i``'s chronon: the :func:`~repro.faults.engine.cascade`
        of its picks, driven by its own injector; -> the picks its
        retries recovered."""
        inj = self.injectors[i]
        pick_of = {int(rid[j]): j
                   for j in np.flatnonzero(lanes_pk == i).tolist()}

        def prober(r: int, attempt: int):
            decision = inj.decide(r, T, attempt)
            if attempt == 0 and decision.ok != ok[pick_of[r]]:
                raise RuntimeError(
                    f"fault plane disagrees with lane {i}'s injector on "
                    f"resource {r} at chronon {T}")
            return decision

        inj.begin_chronon(T)
        round_ = drive(cascade(
            list(pick_of), T, budget, int(self.max_retries[i]),
            _LaneBreaker(self, i) if self.has_brk[i] else None), prober)
        self.failures[i] += round_.failures
        self.retries[i] += round_.retries
        return [pick_of[r] for r in round_.outcomes if not ok[pick_of[r]]]

    def finish(self) -> None:
        """Push the state matrices back into the lane breaker objects."""
        rid_space = self.consec.shape[1]
        for i, ln in enumerate(self.lanes):
            brk = ln.breaker
            if brk is None:
                continue
            # The quarantine census is the breaker's own, kept by _fail.
            # A resource keeps a _ResourceState exactly while its last
            # event was a failure (success pops it).
            for r in [r for r in brk._states if 0 <= r < rid_space]:
                del brk._states[r]
            for r in np.nonzero(self.consec[i] > 0)[0].tolist():
                state = _ResourceState()
                state.consecutive_failures = int(self.consec[i, r])
                state.open_until = int(self.open_until[i, r])
                state.trips = int(self.trips[i, r])
                brk._states[r] = state

    def lane_stats(self) -> list[tuple[int, int, int]]:
        """Per lane ``(failures, retries, quarantined)``; read after
        :meth:`finish`, as quarantined is the breaker's own census."""
        return [(int(self.failures[i]), int(self.retries[i]),
                 ln.breaker.quarantined_count if ln.breaker is not None
                 else 0) for i, ln in enumerate(self.lanes)]


class _LaneBreaker:
    """Lane ``i``'s row of a plane's breaker matrices, answering the
    :class:`~repro.faults.breaker.CircuitBreaker` calls a cascade makes."""

    def __init__(self, plane: _FaultPlane, i: int) -> None:
        self.plane = plane
        self.lane = np.array([i])

    def is_blocked(self, r: int, T: int) -> bool:
        return self.plane.open_until[self.lane[0], r] >= T

    def record_success(self, r: int) -> None:
        self.plane._close(self.lane, np.array([r]))

    def record_failure(self, r: int, T: int) -> None:
        self.plane._fail(self.lane, np.array([r]), T)


# ----------------------------------------------------------------------
# The chronon-major loop
# ----------------------------------------------------------------------

def _expire(col: ColumnarInstance, lo: int, hi: int, glo: int, ghi: int,
            alive: np.ndarray, pending: np.ndarray, doom_col: np.ndarray,
            spare: np.ndarray) -> None:
    """Expire: one flush of the expiry CSR — EIs ``[lo, hi)`` of
    ``col.xe_e``, whose states are segments ``[glo, ghi)`` — taking each
    doom-sensitive row's (``doom_col``, a column vector) misses off
    ``spare`` (doom rows x states, ``size - need`` at the start) and
    clearing ``pending`` where a state's spare runs out."""
    xe = col.xe_e[lo:hi]
    misses = alive[doom_col, xe[None, :]]
    states = col.xg_state[glo:ghi]
    # Reduce to one column per state before the fancy update: duplicate
    # targets in a buffered assign would be lossy.
    seg = col.xg_starts[glo:ghi] - lo
    if seg.size != xe.size:
        misses = np.add.reduceat(misses, seg, axis=1)
    left = spare[:, states] - misses
    spare[:, states] = left
    pending[doom_col, states[None, :]] &= left >= 0


def _candidate_keys(hi: np.ndarray, key_rows: dict[ScoreKey, np.ndarray],
                    col: ColumnarInstance, win: ActivityWindow,
                    alo: int, ahi: int, ps: np.ndarray, grp_of: np.ndarray,
                    T: int, n_cand: np.ndarray, cap_count: np.ndarray,
                    capsum: np.ndarray | None,
                    started: np.ndarray | None) -> None:
    """Score: fill ``hi`` (lanes x the chronon's activity entries
    ``[alo, ahi)`` of ``win``, whose states are ``ps`` and pools
    ``grp_of``) with each lane's candidate keys — (score, finish, start)
    in the one packed layout, pool fields zero. The score is the lane's
    row at chronon ``T``: the window's key column of it, less ``T`` per
    ``started`` sibling (the states' count of opened EIs, the same on
    every lane), plus the terms that read the run — the lane's capture
    counts and captured-deadline sums, and ``n_cand``, its candidates
    per pool — each only where the row weighs it."""
    shift = col.score_shift
    for key, rows in key_rows.items():
        word = win.hi_static[key][alo:ahi]
        if key.deadlines:
            # An int64 factor: int32 counts times a Python int would
            # stay int32 and wrap.
            word = word - started[ps] * np.int64(
                (key.deadlines * T) << shift)
        if key.captured or key.deadlines:
            rc = rows[:, None]
            pc = ps[None, :]
            # Per capture, a row gains ``captured`` and gives back the
            # ``-T`` its open sibling had in ``deadlines``.
            word = word + cap_count[rc, pc] * (
                (key.captured + key.deadlines * T) << shift)
            if key.deadlines:
                word -= capsum[rc, pc] * (key.deadlines << shift)
        if key.pool:
            word = word + (n_cand[rows] * (key.pool << shift))[:, grp_of]
        hi[rows] = word


def _pool_keys(col: ColumnarInstance, pool: np.ndarray, pool_n: np.ndarray,
               hi: np.ndarray, gs_local: np.ndarray, grids: np.ndarray,
               blocked: np.ndarray | None) -> np.ndarray:
    """Rank: one key per (row, resource pool) — the pool's best candidate
    key with its size ``pool_n`` and resource id OR-ed in by
    :meth:`ColumnarInstance.resource_key`; ``INF_KEY`` where ``pool``
    (rows x entries) holds no candidate."""
    # hi where pool, INF_KEY elsewhere: 0 / -1, OR the key in, clear the
    # sign bit — INF_KEY whatever a masked-out key held (OR-ing INF_KEY
    # into a word with the sign bit set would give -1, which sorts first).
    masked = pool.astype(np.int64)
    masked -= 1
    masked |= hi
    masked &= INF_KEY
    key = col.resource_key(np.minimum.reduceat(masked, gs_local, axis=1),
                           pool_n, grids)
    # Quarantined resources drop out of selection *after* pool sizes
    # are packed — the reference's filter_blocked drops their candidates
    # the same way, leaving every other pool's size untouched.
    if blocked is not None:
        key[blocked] = INF_KEY
    return key


def _take_smallest(key: np.ndarray, need: np.ndarray, kmax: int,
                   ramp: np.ndarray):
    """Select: each row's ``need`` smallest valid keys, as ``(rows,
    pools, positions)`` columns — per row best first, so ``positions``
    is the row's decision order (the fault plane's rate limit is
    positional). ``kmax`` bounds every ``need``; ``ramp`` is an index
    ramp at least as long as either axis of ``key``.

    ``INF_KEY`` (empty pool) sorts last, so the first ``need`` valid
    slots of the sorted order are exactly the ``heapq.nsmallest`` picks
    of the reference's ``select_probes``. A full argsort beats the
    argpartition + small-sort chain until there are well into the
    hundreds of pools (measured crossover ~200).
    """
    G = key.shape[1]
    take = min(kmax, G)
    row_col = ramp[:key.shape[0], None]
    if G <= 192:
        order = np.argsort(key, axis=1)[:, :take]
    else:
        part = np.argpartition(key, take - 1, axis=1)[:, :take]
        order = part[row_col, np.argsort(key[row_col, part], axis=1)]
    sel = (key[row_col, order] != INF_KEY) & (ramp[None, :take]
                                              < need[:, None])
    rr, cc = np.divmod(np.flatnonzero(sel), take)
    return rr, order[rr, cc], cc


def _capture(picks: np.ndarray, cand: np.ndarray, grp_of: np.ndarray,
             ae: np.ndarray, ps: np.ndarray, alive: np.ndarray,
             committed: np.ndarray | None, cap_flat: np.ndarray,
             capsum_flat: np.ndarray | None, fin: np.ndarray,
             pending_flat: np.ndarray, need: np.ndarray) -> None:
    """Capture: a probed resource yields *every* candidate on it —
    ``picks`` (rows x pools) says which pools answered; their candidates
    stop being alive, commit their states and count into the capture
    aggregates (flat views of the rows x states matrices; the captured
    deadlines, off the per-EI ``fin``, only where M-EDF keeps their
    sums). A state that reaches its ``need`` stops being ``pending``:
    its other EIs are no candidates."""
    er, ec = np.divmod(np.flatnonzero(cand & picks[:, grp_of]), ae.size)
    states = ps[ec]
    alive[er, ae[ec]] = False
    if committed is not None:
        committed[er, states] = True
    flat = er * (cap_flat.size // alive.shape[0]) + states
    np.add.at(cap_flat, flat, 1)
    if capsum_flat is not None:
        # Widened first: int32 values into an int64 ``add.at`` take
        # NumPy's casting path, several times slower.
        np.add.at(capsum_flat, flat, fin[ae[ec]].astype(np.int64))
    pending_flat[flat[cap_flat[flat] >= need[states]]] = False


def _advance(col: ColumnarInstance, lane_objs: list[_Lane],
             keep: bool = False):
    """Run every lane over ``col``'s windows; -> ``(probe columns, capture
    counts, alive flags, fault stats)``, one entry (row) per lane each.
    ``keep``: the caller handed ``col`` in, so it outlives the run and
    keeps its activity index (:meth:`ColumnarInstance.windows`).

    An active chronon is a fixed run of phases: expire (:func:`_expire`)
    → activate (its entries, the candidates among them, each pool's
    size) → score (:func:`_candidate_keys`) → rank (:func:`_pool_keys`)
    → select (:func:`_take_smallest`; twice for non-preemptive rows) →
    execute (``_FaultPlane.execute``, faulty blocks only) → capture
    (:func:`_capture`). :func:`run_block` is its one caller.
    """
    L = len(lane_objs)
    # Capture state is kept *inverted* (alive = still uncaptured) so the
    # hot per-chronon gathers need no element-wise NOT.
    alive = np.ones((L, col.E), dtype=bool)
    cap_count = np.zeros((L, col.S), dtype=np.int64)
    # A state is committed exactly when it has ever yielded a capture
    # (the fault-free path never reaches the explicit commit hook), so
    # commitment is a *view* of cap_count — no separate scatter needed.
    # A state offers candidates while pending (inverted, like alive):
    # doom clears the flag on lanes whose policy outranks the EI level
    # (sees_doom), reaching its need on every lane.
    pending = np.ones((L, col.S), dtype=bool)

    np_rows = np.flatnonzero([not ln.preemptive for ln in lane_objs])
    plane = _FaultPlane(col, lane_objs) \
        if any(ln.fault_active for ln in lane_objs) else None
    # Under faults a failed probe commits its selected t-interval without
    # capturing anything, so commitment stops being a view of cap_count
    # and needs its own matrix (only non-preemptive pools read it).
    committed = np.zeros((L, col.S), dtype=bool) \
        if plane is not None and np_rows.size else None
    doom_rows = np.flatnonzero([ln.sees_doom for ln in lane_objs])
    spare = np.tile(col.st_size - col.st_need, (doom_rows.size, 1))
    grouped: dict[ScoreKey, list[int]] = {}
    for i, ln in enumerate(lane_objs):
        grouped.setdefault(ln.key, []).append(i)
    key_rows = {key: np.array(rows) for key, rows in grouped.items()}
    # Non-preemptive rows weighing ``pool``: the only ones whose score
    # counts more candidates than their first pool holds.
    pool_np_rows = np.flatnonzero([ln.key.pool != 0 and not ln.preemptive
                                   for ln in lane_objs])
    # Captured-deadline sums, kept for every row, and each state's count
    # of opened EIs, the same for every row (flushed from the opening
    # CSR up to the chronon scored); read by the rows that weigh
    # ``deadlines``.
    capsum = started = None
    if any(key.deadlines for key in key_rows):
        capsum = np.zeros((L, col.S), dtype=np.int64)
        started = np.zeros(col.S, dtype=np.int32)
    op_indptr = col.op_indptr.tolist() if started is not None else None
    op_at = 0
    cap_flat = cap_count.reshape(-1)
    pending_flat = pending.reshape(-1)
    capsum_flat = capsum.reshape(-1) if capsum is not None else None

    # Per-lane budget for each *active* chronon; inactive chronons have
    # no candidates, so their budget can never be spent.
    budgets = np.empty((L, col.act_chronons.size), dtype=np.int64)
    for i, ln in enumerate(lane_objs):
        if ln.budget.is_constant():
            budgets[i] = ln.budget.default
        else:
            budgets[i] = [ln.budget.at(int(T)) for T in col.act_chronons]

    ramp = np.arange(max(L, col.g_max, 1), dtype=np.int64)
    # Scalar per-chronon reads go through plain Python lists — ndarray
    # scalar indexing costs several times more in the hot loop.
    kmax_per_t = budgets.max(axis=0).tolist()

    # The probe log, seeded with one empty entry so it always concatenates.
    log_lanes = [np.empty(0, dtype=np.int64)]
    log_rids = [np.empty(0, dtype=np.int64)]
    log_T = [0]
    xe_ti = 0
    n_xe = col.xe_chronons.size if doom_rows.size else 0
    xe_chronons = col.xe_chronons.tolist()
    xe_indptr = col.xe_indptr.tolist()
    xg_indptr = col.xg_indptr.tolist()
    doom_col = doom_rows[:, None]

    # All run state above is global; only the activity index arrives a
    # window at a time (offsets window-local, see ActivityWindow), with
    # the key columns of this block's score rows.
    for win in col.windows(key_rows, keep):
        at0 = win.first_chronon
        act_chronons = win.act_chronons.tolist()
        act_indptr = win.act_indptr.tolist()
        grp_indptr = win.grp_indptr.tolist()
        hi2d = np.empty((L, int(np.diff(win.act_indptr).max())),
                        dtype=np.int64)
        for ti in range(win.n_act):
            T = act_chronons[ti]

            # Flush everything due by T. Captured status is frozen once
            # an EI's window closes, so deferring an expiry from a quiet
            # chronon to the next active one is exact. (With no
            # doom-sensitive lane n_xe is 0 and the flush never runs.)
            while xe_ti < n_xe and xe_chronons[xe_ti] <= T:
                _expire(col, xe_indptr[xe_ti], xe_indptr[xe_ti + 1],
                        xg_indptr[xe_ti], xg_indptr[xe_ti + 1],
                        alive, pending, doom_col, spare)
                xe_ti += 1

            kmax = kmax_per_t[at0 + ti]
            if kmax <= 0:
                continue
            k_arr = budgets[:, at0 + ti]

            alo = act_indptr[ti]
            ahi = act_indptr[ti + 1]
            # The index is int32; every gather below indexes with these,
            # widened once (an int32 index costs each gather a cast).
            ae = win.act_e[alo:ahi].astype(np.intp)
            ps = win.ps_act[alo:ahi].astype(np.intp)
            glo = grp_indptr[ti]
            ghi = grp_indptr[ti + 1]
            gs_local = win.grp_starts[glo:ghi] - alo
            grids = win.grp_rid[glo:ghi]
            grp_of = win.grp_of[alo:ahi]

            cand = alive[:, ae] & pending[:, ps]
            if not cand.any():
                continue

            # Pool 1: preemptive lanes see every candidate;
            # non-preemptive lanes only candidates of committed states.
            pool = cand
            if np_rows.size:
                comm_np = (cap_count[:, ps][np_rows] > 0
                           if committed is None else
                           committed[:, ps][np_rows])
                pool = cand.copy()
                pool[np_rows] = cand[np_rows] & comm_np
            pool_n = np.add.reduceat(pool, gs_local, axis=1)
            # ``pool`` counts *all* a pool's candidates: pool 1's
            # count on a preemptive row, both pools' on the others.
            n_cand = pool_n
            if pool_np_rows.size:
                n_cand = pool_n.copy()
                n_cand[pool_np_rows] = np.add.reduceat(
                    cand[pool_np_rows], gs_local, axis=1)

            # Openings due by T, as the expiries above: a count nothing
            # reads until a chronon is scored may lag behind it. An int32
            # one: a Python int takes ``add.at``'s casting path, 20x
            # slower.
            if started is not None and op_at < op_indptr[T + 1]:
                np.add.at(started, col.op_state[op_at:op_indptr[T + 1]],
                          np.int32(1))
                op_at = op_indptr[T + 1]
            hi = hi2d[:, :ahi - alo]
            _candidate_keys(hi, key_rows, col, win, alo, ahi, ps, grp_of,
                            T, n_cand, cap_count, capsum, started)
            blocked = plane.blocked(grids, T) if plane is not None else None
            pr_rows, pr_gs, pr_pos = _take_smallest(
                _pool_keys(col, pool, pool_n, hi, gs_local, grids, blocked),
                k_arr, kmax, ramp)
            picks = np.zeros((L, ghi - glo), dtype=bool)
            picks[pr_rows, pr_gs] = True
            n1 = pr_rows.size

            # Pool 2: non-preemptive lanes spend leftover budget on fresh
            # (uncommitted) states, excluding already-probed resources.
            rows2 = np_rows
            if np_rows.size:
                d1 = np.bincount(pr_rows, minlength=L)
                left = ((k_arr[np_rows] > d1[np_rows])
                        & (k_arr[np_rows] > 0))
                rows2 = np_rows[left]
            if rows2.size:
                pool2 = cand[rows2] & ~comm_np[left]
                key2 = _pool_keys(
                    col, pool2, np.add.reduceat(pool2, gs_local, axis=1),
                    hi[rows2], gs_local, grids,
                    blocked[rows2] if blocked is not None else None)
                key2[picks[rows2]] = INF_KEY
                rr2, gids2, cc2 = _take_smallest(
                    key2, k_arr[rows2] - d1[rows2], kmax, ramp)
                rr2 = rows2[rr2]
                picks[rr2, gids2] = True
                pr_rows = np.concatenate((pr_rows, rr2))
                pr_gs = np.concatenate((pr_gs, gids2))
                # Pool-2 decision positions continue after pool 1's.
                pr_pos = np.concatenate((pr_pos, d1[rr2] + cc2))

            if pr_rows.size == 0:
                continue
            rids = grids[pr_gs]
            if plane is not None:
                cap_l, cap_g, fl = plane.execute(
                    T, win.first_group + glo, grids, pr_rows, pr_gs, pr_pos,
                    k_arr)
                if committed is not None and n1 < pr_rows.size:
                    _commit_failed(col, committed, fl, n1, pr_rows, pr_gs,
                                   rows2, pool2, hi, gs_local, ae, ps)
                if cap_l.size == 0:
                    continue
                pr_rows, rids = cap_l, grids[cap_g]
                picks = np.zeros((L, ghi - glo), dtype=bool)
                picks[cap_l, cap_g] = True
            log_lanes.append(pr_rows)
            log_rids.append(rids)
            log_T.append(T)
            _capture(picks, cand, grp_of, ae, ps, alive,
                     committed, cap_flat, capsum_flat, col.ei_finish,
                     pending_flat, col.st_need)

        # One window in flight: the generator builds the next window
        # when the loop asks for it, so let go of this one first — its
        # columns and the last chronon's views into them.
        del win
        ae = ps = grids = grp_of = None

    stats = [(0, 0, 0)] * L
    if plane is not None:
        plane.finish()
        stats = plane.lane_stats()
    # Each lane's own (resource, chronon) columns: copies, pinning no log.
    lane = np.concatenate(log_lanes)
    order = np.argsort(lane, kind="stable")
    log = np.stack((np.concatenate(log_rids),
                    np.repeat(log_T, [a.size for a in log_lanes])))[:, order]
    cuts = np.cumsum(np.bincount(lane, minlength=L))[:-1]
    return ([tuple(own.copy()) for own in np.split(log, cuts, axis=1)],
            cap_count, alive, stats)


def _commit_failed(col: ColumnarInstance, committed: np.ndarray,
                   fail: np.ndarray, n1: int, pr_rows: np.ndarray,
                   pr_gs: np.ndarray, rows2: np.ndarray, pool2: np.ndarray,
                   hi: np.ndarray, gs_local: np.ndarray, ae: np.ndarray,
                   ps: np.ndarray) -> None:
    """A failed probe still commits its *selected* t-interval (budget was
    spent on it). Only fresh-pool (pool-2) picks — decisions ``n1``
    onwards — can flip commitment: pool-1 NP picks come from the
    committed pool and preemptive lanes never read the flag. The
    selected candidate is pool 2's segment argmin — key-equal ties
    resolved as the reference's ``select_probes`` resolves them, by
    ``(profile_id, tinterval_id)`` then candidate-list order ``(seq,
    ei_id)``, which the packed key does not encode."""
    fail2 = np.flatnonzero(fail[n1:])
    if fail2.size == 0:
        return
    tie = col.commit_tie()[ae]
    ends = np.append(gs_local[1:], ae.size)
    for j in (n1 + fail2).tolist():
        i, g = pr_rows[j], pr_gs[j]
        lo = gs_local[g]
        # The pool's candidates, as entry positions of this chronon
        # (``rows2`` ascends: row i is pool 2's searchsorted row).
        seg = lo + np.flatnonzero(
            pool2[np.searchsorted(rows2, i), lo:ends[g]])
        keys = hi[i, seg]
        best = seg[keys == keys.min()]
        committed[i, ps[best[np.argmin(tie[best])]]] = True


# ----------------------------------------------------------------------
# Final accounting
# ----------------------------------------------------------------------

class _Breakdown(Mapping):
    """One lane's ``{key: (complete states with that key, of how many)}``
    over its ``done`` states, counted on first read: ``key_of`` is each
    state's key, ``totals`` each key's state count in report order."""

    __slots__ = ("_key_of", "_done", "_totals", "_table")

    def __init__(self, key_of: np.ndarray, done: np.ndarray,
                 totals: dict[int, int]) -> None:
        self._key_of, self._done, self._totals = key_of, done, totals
        self._table: dict[int, tuple[int, int]] | None = None

    def _read(self) -> dict[int, tuple[int, int]]:
        if self._table is None:
            keys = list(self._totals)
            hits = np.bincount(self._key_of[self._done],
                               minlength=max(keys, default=-1) + 1)
            self._table = dict(zip(keys, zip(hits[keys].tolist(),
                                              self._totals.values())))
        return self._table

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._totals)

    def __repr__(self) -> str:
        return repr(self._read())


def _finalize(col: ColumnarInstance, lanes: list[_Lane],
              probes: list[tuple], cap_count: np.ndarray,
              alive: np.ndarray, stats: list[tuple[int, int, int]],
              runtime: float, windows: int) -> list[SimulationResult]:
    """Every lane's result, from the block's final capture state (one
    row per lane). ``runtime`` is each lane's share of the block's wall
    time; ``windows`` is how many activity windows the run built (0
    when it read a kept one): that much of the lowering was paid inside
    the run, not by the constructor.

    A t-interval with ``need`` captures is captured, whatever happened
    to it later. A cancelled incomplete one is *expired* if its doom was
    already observable at its cancel clock ``gone`` — it had arrived and
    more EIs than ``size - need`` it never captured had closed (captures
    are frozen once a window closes, so the final ``alive`` row says
    which) — and *dropped* otherwise; every other incomplete one
    expired. With nobody leaving nothing is dropped and the question is
    not asked.
    """
    L, total = cap_count.shape
    complete = cap_count >= col.st_need
    leaves = col.st_gone <= col.epoch.last
    dropped = [0] * L
    if leaves.any():
        missed = alive & (col.ei_finish < col.st_gone[col.ei_state])
        observed = np.add.reduceat(
            missed, np.cumsum(col.st_size) - col.st_size,
            axis=1) > col.st_size - col.st_need
        observed &= col.st_arrival <= col.st_gone
        observed |= col.st_visible > col.epoch.last  # expired on arrival
        dropped = np.count_nonzero(~complete & leaves & ~observed,
                                   axis=1).tolist()

    results = []
    for i, lane in enumerate(lanes):
        done = np.flatnonzero(complete[i])
        report = CompletenessReport(
            captured=done.size, total=total,
            per_profile=_Breakdown(col.st_profile, done, col.profile_totals),
            per_rank=_Breakdown(col.st_size, done, col.rank_totals))
        schedule = Schedule.from_columns(*probes[i])
        probes_failed, retries, quarantined = stats[i]
        results.append(SimulationResult(
            label=lane.policy.label(lane.preemptive),
            schedule=schedule,
            report=report,
            probes_used=len(schedule),
            expired=total - done.size - dropped[i],
            runtime_seconds=runtime,
            probes_failed=probes_failed,
            retries=retries,
            resources_quarantined=quarantined,
            extras={"lowering_windows": float(windows),
                    "dropped": float(dropped[i])},
        ))
    return results
