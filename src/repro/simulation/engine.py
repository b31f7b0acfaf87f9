"""Event-indexed fast simulation engine.

:class:`FastProxySimulator` computes exactly the same
:class:`~repro.simulation.result.SimulationResult` as the reference,
``run_online(engine="reference")`` (the live proxy) — probe for probe,
including under fault injection, retries and the circuit breaker — while
replacing the reference's per-chronon rescans with incremental
maintenance:

* **Event queues** (built once at :meth:`run` entry) bucket every state
  arrival, EI window opening (start) and EI window closing (expiry) by
  chronon, so a chronon only touches what actually changed instead of
  re-scanning the whole active set.
* **A per-resource candidate index** maps each resource to its currently
  probeable (state, EI) pairs, updated only on arrival, start, expiry,
  capture and doom events. The reference's candidate bag at any chronon
  is exactly: arrived, uncaptured, window open now, parent not complete,
  and — for rank/multi-EI-level policies — parent not doomed; all five
  conditions change only at events.
* **Cached selection** for every policy with a score row
  (:func:`~repro.online.base.key_of`): each resource caches its best
  candidate key, scored by the row without ``chronon`` / ``const``
  (deadline instead of deadline-minus-chronon). Those two shift every
  candidate of a chronon alike, so the cached keys rank resources
  identically to the reference's scores, and a resource is re-scored
  only when an event dirtied it. A row weighing ``deadlines`` (M-EDF)
  changes non-uniformly across candidates, so it is re-scored every
  chronon — but in O(1) per candidate via per-state aggregates instead
  of the reference's O(rank) sum.

Equivalence of tie-breaking: the reference resolves full score ties by
candidate list position (``min`` keeps the first). The reference list is
ordered by (arrival order, EI id), so extending the fast engine's min key
with ``(seq, ei_id)`` — where ``seq`` numbers states in arrival order —
reproduces the reference's choice exactly. Final accounting needs no
per-chronon bookkeeping: a t-interval is counted captured iff it is
complete when the epoch ends, expired otherwise, which is provably what
the reference's retire/flush counting computes.

Policies without a row (subclasses that override ``score`` or
``observe_candidates``) fall back to a generic path that
still benefits from the index: the flat candidate list is materialised
from it in reference order and handed to
:func:`~repro.online.base.select_probes`.

A state's ``is_complete`` flips (to True) only on ``mark_captured`` and
its ``is_expired`` only when an uncaptured EI's deadline passes — also
for a t-interval that needs fewer than all its EIs, whose completion
retires its remaining index entries.

**Live churn.** :meth:`FastProxySimulator.add_profile` and
:meth:`~FastProxySimulator.remove_profile` register and cancel whole
profiles *mid-epoch*: an insert splices each new EI's start/expiry events
into the per-chronon event queues by the same rule that built them
(:meth:`~FastProxySimulator._queue_events`, shared with :meth:`begin`
and :meth:`~FastProxySimulator.rebuild_structures`) — O(log n + touched
entries) per churn event, no rebuild. A t-interval registered after one
of its deadlines is *doomed at birth*; a policy that sees doom will
never probe it, so it queues nothing. A remove retires
the state's live index entries and freezes it out of future events.
Arrival and accounting semantics mirror
:class:`~repro.runtime.proxy.MonitoringProxy`: a profile registered at
clock ``T`` participates from chronon ``T + 1``; a cancelled t-interval
counts as *expired* if it was already doomed when cancelled (its missed
deadline was observable), *dropped* otherwise. ``run(churn=...)`` applies
a plan of such events between chronons; ``churn_rebuild=True`` instead
calls :meth:`~FastProxySimulator.rebuild_structures` after every event —
the from-scratch referee the incremental path is property-tested against.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict

from repro.core.budget import BudgetVector
from repro.core.completeness import CompletenessReport
from repro.core.errors import ModelError
from repro.core.profile import Profile, ProfileSet
from repro.core.schedule import Schedule
from repro.core.timeline import Chronon, Epoch
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.engine import execute_probes
from repro.faults.model import OK_DECISION, FaultSpec, injector_of
from repro.online.base import (
    EI_LEVEL,
    Candidate,
    Policy,
    ProbeDecision,
    TIntervalState,
    key_of,
    noise,
    select_probes,
)
from repro.simulation.result import SimulationResult

__all__ = ["FastProxySimulator"]

#: ``_FastState.removed`` markers. A state cancelled before any of its
#: deadlines passed is *dropped*; one whose doom was already observable
#: at cancel time is *expired* — the same split
#: :meth:`MonitoringProxy._begin_step` makes for inactive states.
_REMOVED_DROPPED = 1
_REMOVED_EXPIRED = 2


class _FastState:
    """Per-t-interval bookkeeping of the fast engine.

    ``seq`` numbers states in the reference's active-list order (arrival
    chronon, then creation order), which the tie-break keys rely on.
    ``medf_sum``/``medf_started`` are the M-EDF aggregates: the sum of
    deadlines over uncaptured EIs and the number of uncaptured EIs whose
    window has opened (closed before the state arrived included) — the
    M-EDF score at chronon T is
    ``medf_sum - T * medf_started``, exactly (all quantities are small
    integers, so float arithmetic is exact).
    """

    __slots__ = ("state", "seq", "arrival", "doomed", "removed",
                 "medf_sum", "medf_started", "pid", "tid")

    def __init__(self, state: TIntervalState, seq: int,
                 arrival: Chronon) -> None:
        self.state = state
        self.seq = seq
        self.arrival = arrival
        self.doomed = False
        self.removed = 0
        self.medf_sum = 0
        self.medf_started = 0
        # Tie-break identity, cached off the eta to keep the scoring
        # loops free of attribute chains.
        self.pid = state.eta.profile_id
        self.tid = state.eta.tinterval_id


class FastProxySimulator:
    """Drop-in fast replacement for ``run_online(engine="reference")``.

    Takes that call's arguments (the engine name aside) and produces an
    identical :class:`SimulationResult` (up to ``runtime_seconds``,
    which measures this engine's own wall time).
    """

    def __init__(self, profiles: ProfileSet, epoch: Epoch,
                 budget: BudgetVector, policy: Policy,
                 preemptive: bool = True,
                 faults: FaultSpec | None = None,
                 retry: RetryConfig | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        self.profiles = profiles
        self.epoch = epoch
        self.budget = budget
        self.policy = policy
        self.preemptive = preemptive
        self.injector = injector_of(faults)
        self.retry = retry
        self.breaker = breaker

        # Selection mode: cached keys scored by the policy's row, or the
        # generic fallback for a policy without one. The row leaves out
        # ``chronon`` and ``const``, which shift every candidate of a
        # chronon alike, so a cached key stays valid until an event
        # dirties its resource — except under ``deadlines``, whose ``-T``
        # per open sibling drifts non-uniformly: those rows are rescored
        # every chronon (O(1) per candidate via the state aggregates).
        self._row = key_of(policy)
        self._fast_mode = self._row is not None
        self._rescore = self._fast_mode and self._row.deadlines != 0
        self._capture_dirty = self._fast_mode and self._row.captured != 0
        # NP mode pools depend on committed flags, so flips dirty caches.
        self._commit_dirty = self._fast_mode and not preemptive

        # rid -> {(seq, ei_id) -> (fs, ei, Candidate)}
        self._index: dict[int, dict[tuple[int, int], tuple]] = {}
        # Ready-made selection triples (rank_key, rid, best_candidate),
        # one per resource with a non-empty pool, rebuilt only when the
        # resource is dirtied: in preemptive mode ``_cache`` holds the
        # single pool; in NP mode ``_cache`` is the committed pool and
        # ``_cache2`` the fresh pool.
        self._cache: dict[int, tuple] = {}
        self._cache2: dict[int, tuple] = {}
        self._dirty: set[int] = set()
        self._fs_by_key: dict[tuple[int, int], _FastState] = {}

        self._sees_doom = policy.level != EI_LEVEL
        self._fault_aware = (self.injector is not None
                             or self.breaker is not None
                             or self.retry is not None)
        self._begun = False

    # ------------------------------------------------------------------
    # Candidate index maintenance
    # ------------------------------------------------------------------

    def _add_entry(self, fs: _FastState, ei) -> None:
        rid = ei.resource_id
        entries = self._index.get(rid)
        if entries is None:
            entries = {}
            self._index[rid] = entries
        entries[(fs.seq, ei.ei_id)] = (fs, ei, Candidate(fs.state, ei))
        if self._fast_mode:
            self._dirty.add(rid)

    def _remove_entry(self, fs: _FastState, ei) -> None:
        rid = ei.resource_id
        entries = self._index.get(rid)
        if entries is None:
            return
        if entries.pop((fs.seq, ei.ei_id), None) is None:
            return
        if entries:
            if self._fast_mode:
                self._dirty.add(rid)
        else:
            del self._index[rid]
            self._cache.pop(rid, None)
            self._cache2.pop(rid, None)
            self._dirty.discard(rid)

    def _remove_state_entries(self, fs: _FastState) -> None:
        """Drop every remaining index entry of one t-interval."""
        captured = fs.state.captured
        for ei in fs.state.eta:
            if not captured[ei.ei_id]:
                self._remove_entry(fs, ei)

    def _dirty_state_entries(self, fs: _FastState) -> None:
        """Mark resources holding this state's entries for re-scoring."""
        seq = fs.seq
        index = self._index
        for ei in fs.state.eta:
            entries = index.get(ei.resource_id)
            if entries and (seq, ei.ei_id) in entries:
                self._dirty.add(ei.resource_id)

    # ------------------------------------------------------------------
    # Cached selection
    # ------------------------------------------------------------------

    def _recompute(self, rid: int, entries: dict, chronon: Chronon) -> None:
        """Rebuild one resource's ready-made selection triple(s).

        The per-entry key extends the reference's (score, deadline,
        start, resource, profile, t-interval) comparison with (seq,
        ei_id), so a full tie resolves to the entry that comes first in
        the reference's candidate list — reproducing ``min``'s
        first-wins behaviour exactly. The stored triple's rank key
        mirrors the reference's resource ranking: (best score, best
        deadline, -pool size, best tie-break). The score is the policy's
        row without ``chronon`` / ``const``, which shift every candidate
        of a chronon alike, so it ranks as the reference's score does.
        """
        row = self._row
        # ``pool`` counts every candidate on the resource, both NP pools.
        pool = row.pool * len(entries)
        split = not self.preemptive
        # Per pool (0: the only one, or NP's committed; 1: NP's fresh):
        # best key, its candidate, the pool's size.
        best: list = [None, None]
        chosen: list = [None, None]
        sizes = [0, 0]
        for (seq, ei_id), (fs, ei, cand) in entries.items():
            state = fs.state
            score = (pool + row.finish * ei.finish + row.start * ei.start
                     + row.rank * state.profile_rank
                     + row.need * state.need
                     + row.captured * state.captured_count
                     + row.deadlines * (fs.medf_sum
                                        - chronon * fs.medf_started))
            if row.noise:
                score += row.noise * int(noise(fs.pid, fs.tid, ei_id))
            key = (score, ei.finish, ei.start, rid,
                   fs.pid, fs.tid, seq, ei_id)
            side = split and not state.committed
            sizes[side] += 1
            if best[side] is None or key < best[side]:
                best[side], chosen[side] = key, cand
        for side, cache in enumerate((self._cache, self._cache2)):
            key = best[side]
            if key is None:
                cache.pop(rid, None)
            else:
                cache[rid] = ((key[0], key[1], -sizes[side], key[2],
                               key[3], key[4], key[5]), rid, chosen[side])

    def _select_fast(self, chronon: Chronon,
                     budget: int) -> list[ProbeDecision]:
        index = self._index
        if self._rescore:
            # ``deadlines`` drifts non-uniformly with the chronon: rescore
            # everything (O(1) per candidate via the state aggregates).
            for rid, entries in index.items():
                self._recompute(rid, entries, chronon)
            self._dirty.clear()
        elif self._dirty:
            for rid in self._dirty:
                entries = index.get(rid)
                if entries:
                    self._recompute(rid, entries, chronon)
            self._dirty.clear()

        breaker = self.breaker
        blocked = None
        if breaker is not None:
            blocked = {rid for rid in index
                       if breaker.is_blocked(rid, chronon)}
            if len(blocked) == len(index):
                return []

        # After the refresh above, cache keys track index keys exactly
        # (every index mutation dirties or evicts), so the pools are the
        # cached triples themselves — no per-chronon key building. The
        # fresh pool (``_cache2``) of a preemptive run is always empty.
        def unblocked(cache: dict[int, tuple]):
            if not blocked:
                return cache.values()
            return [triple for rid, triple in cache.items()
                    if rid not in blocked]

        decisions = [ProbeDecision(rid, cand) for _k, rid, cand
                     in heapq.nsmallest(budget, unblocked(self._cache))]
        if len(decisions) < budget:
            chosen = {decision.resource_id for decision in decisions}
            needed = budget - len(decisions) + len(chosen)
            for _k, rid, cand in heapq.nsmallest(
                    needed, unblocked(self._cache2)):
                if rid in chosen:
                    continue
                if len(decisions) >= budget:
                    break
                decisions.append(ProbeDecision(rid, cand))
                chosen.add(rid)
        return decisions

    def _select_generic(self, chronon: Chronon,
                        budget: int) -> list[ProbeDecision]:
        """Fallback for unrecognised policies: index -> flat candidates.

        The list is ordered by (seq, ei_id) — the reference's candidate
        order — and handed to the shared selection code, so arbitrary
        Policy subclasses (stateful hooks included) behave identically.
        """
        items: list[tuple[tuple[int, int], tuple]] = []
        for entries in self._index.values():
            items.extend(entries.items())
        items.sort(key=lambda kv: kv[0])
        candidates = [kv[1][2] for kv in items]
        breaker = self.breaker
        if breaker is not None:
            blocked = {rid for rid in self._index
                       if breaker.is_blocked(rid, chronon)}
            if blocked:
                candidates = [c for c in candidates
                              if c.ei.resource_id not in blocked]
        if not candidates:
            return []
        self.policy.observe_candidates(candidates, chronon)
        return select_probes(self.policy, candidates, chronon, budget,
                             self.preemptive)

    # ------------------------------------------------------------------
    # Captures
    # ------------------------------------------------------------------

    def _apply_captures(self, probed: list[int], chronon: Chronon) -> None:
        """Capture every candidate EI on the probed resources.

        Mirrors :func:`~repro.online.base.apply_probes`: all probed
        entries are captured (even if a capture completes their
        t-interval mid-loop), then completed t-intervals have their
        remaining uncaptured entries retired from the index (relevant
        for a t-interval that needs fewer than all its EIs).
        """
        popped: list[dict] = []
        for rid in probed:
            entries = self._index.pop(rid, None)
            if not entries:
                continue
            self._cache.pop(rid, None)
            self._cache2.pop(rid, None)
            self._dirty.discard(rid)
            popped.append(entries)
        completed: list[_FastState] = []
        for entries in popped:
            for fs, ei, _cand in entries.values():
                state = fs.state
                state.mark_captured(ei.ei_id)
                fs.medf_sum -= ei.finish
                fs.medf_started -= 1
                flipped = not state.committed
                state.committed = True
                if (self._capture_dirty
                        or (flipped and self._commit_dirty)):
                    self._dirty_state_entries(fs)
                if state.is_complete:
                    completed.append(fs)
        for fs in completed:
            self._remove_state_entries(fs)

    def _commit(self, state: TIntervalState) -> None:
        """Commit a selected t-interval (probe issued, even if failed)."""
        if not state.committed:
            state.committed = True
            if self._commit_dirty:
                self._dirty_state_entries(self._fs_by_key[state.key])

    # ------------------------------------------------------------------
    # Main loop: begin / advance / finish
    # ------------------------------------------------------------------

    @property
    def clock(self) -> Chronon:
        """Last chronon advanced (0 before the first)."""
        return self._clock

    def begin(self) -> None:
        """Build event queues and numbering; ready the chronon loop."""
        if self._begun:
            raise ModelError("FastProxySimulator.begin() called twice")
        self._begun = True
        self._started_at = time.perf_counter()
        last = self.epoch.last

        # Bucket states by arrival (clamped like the reference so that
        # past-epoch t-intervals are still counted), then number them in
        # the reference's active-list order.
        buckets: dict[Chronon, list[TIntervalState]] = {}
        for profile in self.profiles:
            rank = profile.rank
            for eta in profile:
                state = TIntervalState(eta, rank)
                arrival = min(eta.earliest_start, last)
                buckets.setdefault(arrival, []).append(state)

        self._start_events: dict[Chronon, list[tuple[_FastState, object]]] \
            = defaultdict(list)
        self._expiry_events: dict[Chronon, list[tuple[_FastState, object]]] \
            = defaultdict(list)
        self._clock: Chronon = 0
        all_states: list[_FastState] = []
        states_by_profile: dict[int, list[_FastState]] = defaultdict(list)
        seq = 0
        for arrival in sorted(buckets):
            for state in buckets[arrival]:
                fs = _FastState(state, seq, arrival)
                seq += 1
                all_states.append(fs)
                self._fs_by_key[state.key] = fs
                states_by_profile[fs.pid].append(fs)
                eis = state.eta.eis
                for ei in eis:
                    fs.medf_sum += ei.finish
                self._queue_events(fs, eis, arrival)

        self._all_states = all_states
        self._states_by_profile = states_by_profile
        self._seq = seq
        self._next_profile_id = len(self.profiles)
        self._extra_profiles: list[Profile] = []
        self._churned = False
        self._doomed_at_birth = 0
        self._schedule = Schedule()
        self._probes_failed = 0
        self._retries = 0

    def _queue_events(self, fs: _FastState, eis, arrival: Chronon) -> None:
        """The start/expiry scheduling rule, for ``eis`` of one state.

        ``eis`` are uncaptured EIs of a state that can still become a
        candidate. An EI whose window closed before the state's arrival
        schedules nothing — it was never probeable, its expiry was
        implicitly "processed" before the state existed. Otherwise its
        start event fires when it becomes probeable, at
        ``max(start, arrival)`` (one handler serves "window already
        open on arrival" and "opens later" alike), and its expiry event
        right after its deadline. Only the future is queued: an event
        the clock has already passed (possible only when
        :meth:`rebuild_structures` replays old states) is applied
        instead — the EI enters the index if its window is still open.
        """
        clock = self._clock
        last = self.epoch.last
        start_events = self._start_events
        expiry_events = self._expiry_events
        for ei in eis:
            finish = ei.finish
            if finish < arrival:
                continue
            fire = ei.start
            if fire < arrival:
                fire = arrival
            event = (fs, ei)
            if fire > clock:
                if fire <= last:
                    start_events[fire].append(event)
            elif finish >= clock:
                self._add_entry(fs, ei)
            if clock <= finish < last:
                expiry_events[finish + 1].append(event)

    def advance(self, chronon: Chronon) -> None:
        """Process one chronon: events, selection, probes, captures."""
        self._clock = chronon
        sees_doom = self._sees_doom
        starts = self._start_events.get(chronon)
        if starts is not None:
            for fs, ei in starts:
                if fs.removed:
                    continue
                state = fs.state
                if state.captured[ei.ei_id]:
                    continue
                fs.medf_started += 1
                if state.is_complete:
                    continue  # at its need: no longer a candidate
                if sees_doom and fs.doomed:
                    continue
                self._add_entry(fs, ei)
        expiries = self._expiry_events.get(chronon)
        if expiries is not None:
            for fs, ei in expiries:
                if fs.removed:
                    continue
                state = fs.state
                if state.captured[ei.ei_id]:
                    continue
                self._remove_entry(fs, ei)
                # An uncaptured EI just crossed its deadline — the
                # only instant at which a state can become doomed.
                if (not fs.doomed and not state.is_complete
                        and state.is_expired(chronon)):
                    fs.doomed = True
                    if sees_doom:
                        self._remove_state_entries(fs)

        budget_now = self.budget.at(chronon)
        if budget_now <= 0 or not self._index:
            return
        # Looked up per chronon, not stored: a bound method kept on the
        # instance is a reference cycle, and the engine's states and
        # event queues would outlive the run until a full GC pass.
        select = self._select_fast if self._fast_mode \
            else self._select_generic
        decisions = select(chronon, budget_now)
        if not decisions:
            return

        if not self._fault_aware:
            for decision in decisions:
                self._schedule.add_probe(decision.resource_id, chronon)
            self._apply_captures(
                [d.resource_id for d in decisions], chronon)
            return

        injector = self.injector
        if injector is not None:
            injector.begin_chronon(chronon)
        round_ = execute_probes(
            decisions, chronon, budget_now, self._prober(chronon),
            retry=self.retry, breaker=self.breaker)
        self._probes_failed += round_.failures
        self._retries += round_.retries
        ok_rids = []
        for decision in decisions:
            # Selection commits the t-interval even when the request
            # fails (budget was spent on it), like the reference.
            self._commit(decision.selected.state)
            if decision.resource_id in round_.outcomes:
                ok_rids.append(decision.resource_id)
                self._schedule.add_probe(decision.resource_id, chronon)
        self._apply_captures(ok_rids, chronon)

    def finish(self) -> SimulationResult:
        """Close the epoch: per-t-interval accounting and the result.

        The reference counts each t-interval exactly once — captured
        when it completes, expired at doom time or at the end-of-epoch
        flush — which reduces to: captured iff complete when the epoch
        ends. Cancelled states carry their classification in
        ``fs.removed`` (expired if already doomed at cancel time,
        dropped otherwise), mirroring the proxy's unregister accounting.
        """
        profile_sizes: dict[int, int] = {}
        rank_totals: dict[int, int] = {}
        for profiles in (self.profiles, self._extra_profiles):
            for profile in profiles:
                profile_sizes[profile.profile_id] = len(profile.tintervals)
                for eta in profile.tintervals:
                    size = len(eta.eis)
                    rank_totals[size] = rank_totals.get(size, 0) + 1
        profile_hits = dict.fromkeys(profile_sizes, 0)
        rank_hits = dict.fromkeys(rank_totals, 0)
        captured_total = 0
        expired_total = 0
        dropped_total = 0
        for fs in self._all_states:
            if fs.removed:
                if fs.removed == _REMOVED_EXPIRED:
                    expired_total += 1
                else:
                    dropped_total += 1
            elif fs.state.is_complete:
                captured_total += 1
                profile_hits[fs.pid] += 1
                rank_hits[len(fs.state.eta.eis)] += 1
            else:
                expired_total += 1
        per_profile = {profile_id: (profile_hits[profile_id], total)
                       for profile_id, total in profile_sizes.items()}
        per_rank = {size: (rank_hits[size], total)
                    for size, total in rank_totals.items()}

        runtime = time.perf_counter() - self._started_at
        report = CompletenessReport(
            captured=captured_total,
            total=sum(profile_sizes.values()),
            per_profile=per_profile,
            per_rank=per_rank,
        )
        extras: dict[str, float] = {}
        if self._churned:
            extras = {
                "dropped": float(dropped_total),
                "added_profiles": float(len(self._extra_profiles)),
                "doomed_at_birth": float(self._doomed_at_birth),
            }
        return SimulationResult(
            label=self.policy.label(self.preemptive),
            schedule=self._schedule,
            report=report,
            probes_used=len(self._schedule),
            expired=expired_total,
            runtime_seconds=runtime,
            probes_failed=self._probes_failed,
            retries=self._retries,
            resources_quarantined=(self.breaker.quarantined_count
                                   if self.breaker is not None else 0),
            extras=extras,
        )

    def run(self, churn=None, churn_rebuild: bool = False) \
            -> SimulationResult:
        """Execute the full epoch and return the run's result.

        ``churn`` is an optional iterable of churn events (see
        :mod:`repro.simulation.churn`), each with a ``chronon`` (the
        clock value at which it lands: 0 = before the first chronon, T =
        right after chronon T is advanced, matching the proxy's
        register-at-clock-T semantics) and an ``action`` of ``"add"``
        (``event.profile``) or ``"remove"`` (``event.profile_id``).
        Events beyond ``epoch.last`` never fire. With
        ``churn_rebuild=True`` every event is followed by
        :meth:`rebuild_structures` — the O(n) from-scratch referee.
        """
        self.begin()
        plan: dict[Chronon, list] = {}
        if churn is not None:
            for event in churn:
                plan.setdefault(event.chronon, []).append(event)
        pending = plan.pop(0, None)
        if pending:
            self._apply_churn(pending, churn_rebuild)
        for chronon in self.epoch:
            self.advance(chronon)
            pending = plan.pop(chronon, None)
            if pending:
                self._apply_churn(pending, churn_rebuild)
        return self.finish()

    def _apply_churn(self, events, rebuild: bool) -> None:
        for event in events:
            if event.action == "add":
                self.add_profile(event.profile)
            elif event.action == "remove":
                self.remove_profile(event.profile_id)
            else:
                raise ModelError(
                    f"unknown churn action {event.action!r}")
            if rebuild:
                self.rebuild_structures()

    # ------------------------------------------------------------------
    # Live churn
    # ------------------------------------------------------------------

    def add_profile(self, profile: Profile) -> int:
        """Register ``profile`` mid-run; returns its assigned id.

        Ids are handed out sequentially after the initial set's (len of
        initial profiles, then +1 per add), so callers can predict them.
        Each t-interval arrives at ``max(earliest_start, clock + 1)``
        (clamped to the epoch) — the proxy's registration clamp — and
        its EI events are spliced into the per-chronon queues by
        :meth:`_queue_events`. One pass over a t-interval's EIs yields
        its arrival, its M-EDF sum and whether some window closed before
        arrival; only then does M-EDF's started count begin above 0 (the
        closed windows) and can it be doomed at birth (the state
        contract in the module docstring), so only then is
        ``is_expired`` asked.
        Under a doom-seeing policy a t-interval doomed at birth queues
        nothing at all: it can never become a candidate, so ``advance``
        would discard every one of its events.
        O(log n + EIs) per profile: only touched resources are dirtied.

        Raises
        ------
        ModelError
            Before :meth:`begin`, or for an empty profile — which
            :meth:`MonitoringProxy.register_profile
            <repro.runtime.proxy.MonitoringProxy.register_profile>`
            takes like any other; this leaf engine keeps its refusal.
        """
        if not self._begun:
            raise ModelError("add_profile() requires begin()/run()")
        if len(profile) == 0:
            raise ModelError("cannot register an empty profile")
        profile_id = self._next_profile_id
        self._next_profile_id += 1
        attached = profile.attached(profile_id)
        self._extra_profiles.append(attached)
        self._churned = True
        last = self.epoch.last
        floor = self._clock + 1
        rank = attached.rank
        sees_doom = self._sees_doom
        all_states = self._all_states
        fs_by_key = self._fs_by_key
        states = self._states_by_profile[profile_id]
        for eta in attached.tintervals:
            state = TIntervalState(eta, rank)
            eis = eta.eis
            earliest = eis[0].start
            soonest = eis[0].finish
            medf_sum = 0
            for ei in eis:
                finish = ei.finish
                medf_sum += finish
                if finish < soonest:
                    soonest = finish
                if ei.start < earliest:
                    earliest = ei.start
            arrival = earliest if earliest > floor else floor
            if arrival > last:
                arrival = last
            fs = _FastState(state, self._seq, arrival)
            self._seq += 1
            fs.medf_sum = medf_sum
            all_states.append(fs)
            fs_by_key[state.key] = fs
            states.append(fs)
            if floor > last:  # registered once the epoch is over
                fs.removed = _REMOVED_EXPIRED
            if soonest < arrival:
                # Windows that closed before the state arrived queue no
                # event, but M-EDF counts them as started: here, once,
                # not in _queue_events, which rebuild_structures replays.
                fs.medf_started = sum(ei.finish < arrival for ei in eis)
                if state.is_expired(arrival):
                    # Doomed at birth: a deadline passed before the
                    # state's arrival (possible only for mid-run adds).
                    fs.doomed = True
                    self._doomed_at_birth += 1
                    if sees_doom:
                        continue
            self._queue_events(fs, eis, arrival)
        return profile_id

    def remove_profile(self, profile_id: int) -> None:
        """Cancel a registered profile mid-run.

        Live index entries are retired immediately; the ``removed``
        marker freezes the states out of future start/expiry events and
        routes them to the dropped/expired split at :meth:`finish`.
        Already-complete t-intervals stay captured (the client got the
        notification), exactly like the proxy's unregister. Idempotent
        per t-interval. O(log n + touched entries).
        """
        if not self._begun:
            raise ModelError("remove_profile() requires begin()/run()")
        states = self._states_by_profile.get(profile_id)
        if states is None:
            raise ModelError(f"unknown profile id {profile_id!r}")
        clock = self._clock
        for fs in states:
            if fs.removed or fs.state.is_complete:
                continue
            # Doom is only *observable* once the state has arrived: a
            # doomed-at-birth state cancelled before its arrival chronon
            # was never active, so it counts as dropped (the proxy's
            # inactive-before-expiry check order).
            if fs.doomed and fs.arrival <= clock:
                fs.removed = _REMOVED_EXPIRED
            else:
                fs.removed = _REMOVED_DROPPED
            self._remove_state_entries(fs)
        self._churned = True

    def rebuild_structures(self) -> None:
        """From-scratch rebuild of the candidate index and caches.

        The O(n) referee for the incremental churn path: derives the
        index, selection caches and future event queues directly from
        primary state (states, captures, dooms, the clock), exactly as a
        fresh ``begin()`` at this clock would. Property tests assert the
        incremental structures match this after every churn event.
        """
        sees_doom = self._sees_doom
        self._index.clear()
        self._cache.clear()
        self._cache2.clear()
        self._dirty.clear()
        self._start_events = defaultdict(list)
        self._expiry_events = defaultdict(list)
        for fs in self._all_states:
            state = fs.state
            # Removed, complete and (to a doom-seeing policy) doomed
            # states can never be candidates again: every event of
            # theirs would be discarded by ``advance``.
            doomed_out = sees_doom and fs.doomed
            if fs.removed or state.is_complete or doomed_out:
                continue
            captured = state.captured
            self._queue_events(
                fs, [ei for ei in state.eta.eis if not captured[ei.ei_id]],
                fs.arrival)
        self._dirty.update(self._index)

    def _prober(self, chronon: Chronon):
        """A prober over the fault injector (always ok without one)."""
        injector = self.injector
        if injector is None:
            return lambda resource_id, attempt: OK_DECISION
        return (lambda resource_id, attempt:
                injector.decide(resource_id, chronon, attempt))
