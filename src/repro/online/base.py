"""Online policy framework.

Section 4.2 of the paper: at every chronon the proxy sees the candidate
t-intervals (``cands(eta)``) — those that arrived, are not yet fully
captured, and can still complete — and their candidate EIs (``cands(I)``).
A *policy* scores candidate EIs and the proxy probes the resources of the
best-scored EIs, up to the chronon's budget.

This module provides:

* :class:`TIntervalState` — mutable capture-tracking wrapper around an
  immutable :class:`~repro.core.intervals.TInterval`;
* :class:`Candidate` — one probe-able (state, EI) pair;
* :class:`ScoreKey` — a policy's score as one row of integer feature
  weights, and :func:`key_of`, the row a policy runs by;
* :class:`Policy` — the scoring interface every policy implements;
* :func:`select_probes` — budgeted, preemption-aware greedy selection;
* :func:`plan_chronon` / :func:`settle_chronon` — **the object-level
  chronon**, the two halves around a probe round. The reference
  simulator and the live proxies are callers of this pair and spell
  none of it themselves; :func:`retire` alone is their end-of-epoch
  flush.

Scores are *lower-is-better*; ties break deterministically on
``(deadline, start, resource id, profile id, t-interval id)``.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Container, Iterator, Mapping, Sequence

import numpy as np

from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.timeline import Chronon

__all__ = [
    "Candidate",
    "Policy",
    "PolicyLevel",
    "ScoreKey",
    "TIntervalState",
    "filter_blocked",
    "key_of",
    "noise",
    "plan_chronon",
    "retire",
    "select_probes",
    "settle_chronon",
]

# The paper's three-level classification of online policies (§4.2.2).
PolicyLevel = str
EI_LEVEL: PolicyLevel = "ei"
RANK_LEVEL: PolicyLevel = "rank"
MULTI_EI_LEVEL: PolicyLevel = "multi-ei"

#: A chronon past every deadline: :func:`retire` at it dooms whatever
#: is still incomplete and keeps no carcass — the end-of-epoch flush.
EPOCH_OVER: Chronon = sys.maxsize


class TIntervalState:
    """Mutable runtime state of one candidate t-interval.

    Tracks which EIs are captured, whether the t-interval was ever selected
    by the policy (``committed`` — drives non-preemptive behaviour),
    whether :func:`retire` already reported its doom (``doom_reported``
    — counted once however long the carcass stays), and caches the
    owning profile's rank (the MRSF score needs it) and the t-interval's
    ``need``, the captures that complete it.

    Capture progress is tracked with counters and a lazily advanced
    earliest-uncaptured-deadline cursor, so ``captured_count``,
    ``is_complete`` and ``is_expired`` are O(1) (amortized) instead of
    scanning ``eta`` — these run once per state per chronon in the
    simulator's hot loop (O(size - need) past that deadline when ``need``
    is below the size). The invariant is that every capture goes through
    :meth:`mark_captured`; writing ``captured[i]`` directly desyncs the
    counters.
    """

    __slots__ = ("eta", "profile_rank", "need", "captured", "committed",
                 "doom_reported", "_captured_count", "_deadline_order",
                 "_deadline_pos")

    def __init__(self, eta: TInterval, profile_rank: int) -> None:
        self.eta = eta
        self.profile_rank = profile_rank
        self.need = eta.need
        self.captured = [False] * len(eta.eis)
        self.committed = False
        self.doom_reported = False
        self._captured_count = 0
        # EIs ordered by deadline; the cursor skips captured ones lazily.
        # Built on first expiry query — many t-intervals complete without
        # ever being asked for their earliest uncaptured deadline.
        self._deadline_order: list[int] | None = None
        self._deadline_pos = 0

    @property
    def key(self) -> tuple[int, int]:
        """Stable identity ``(profile_id, tinterval_id)``."""
        return (self.eta.profile_id, self.eta.tinterval_id)

    @property
    def captured_count(self) -> int:
        """Number of already-captured EIs (``sum I(I', S)`` over siblings)."""
        return self._captured_count

    @property
    def residual(self) -> int:
        """Number of EIs still to capture before the t-interval counts."""
        return max(0, self.need - self._captured_count)

    @property
    def is_complete(self) -> bool:
        """True once ``need`` EIs are captured (the t-interval counts)."""
        return self._captured_count >= self.need

    @property
    def earliest_uncaptured_deadline(self) -> Chronon | None:
        """Smallest ``finish`` over uncaptured EIs; None when complete."""
        captured = self.captured
        if len(captured) == 1:
            # A single EI needs no deadline order (rank-1 t-intervals).
            return None if captured[0] else self.eta.eis[0].finish
        order = self._deadline_order
        if order is None:
            finishes = [ei.finish for ei in self.eta.eis]
            order = self._deadline_order = sorted(
                range(len(finishes)), key=finishes.__getitem__)
        pos = self._deadline_pos
        while pos < len(order) and captured[order[pos]]:
            pos += 1
        self._deadline_pos = pos
        if pos == len(order):
            return None
        return self.eta[order[pos]].finish

    def is_expired(self, chronon: Chronon) -> bool:
        """True when more uncaptured EIs are past their deadline than
        ``size - need`` — one, when every EI is needed.

        An expired t-interval can never complete and is dropped from the
        candidate set (it still counts in the GC denominator).
        """
        deadline = self.earliest_uncaptured_deadline
        if deadline is None or chronon <= deadline:
            return False
        slack = len(self.captured) - self.need
        if not slack:
            return True
        # The cursor stands on the first miss: count the misses from it.
        captured = self.captured
        eis = self.eta.eis
        for index in self._deadline_order[self._deadline_pos:]:
            if eis[index].finish >= chronon:
                return False
            if not captured[index]:
                slack -= 1
                if slack < 0:
                    return True
        return False

    def uncaptured_eis(self) -> list[ExecutionInterval]:
        """EIs not yet captured, in declaration order."""
        return [ei for ei in self.eta if not self.captured[ei.ei_id]]

    def probeable_eis(self, chronon: Chronon) -> list[ExecutionInterval]:
        """Uncaptured EIs whose window contains ``chronon``."""
        return [ei for ei in self.eta
                if not self.captured[ei.ei_id] and ei.active_at(chronon)]

    def mark_captured(self, ei_id: int) -> None:
        """Record the capture of one EI (idempotent)."""
        if not self.captured[ei_id]:
            self.captured[ei_id] = True
            self._captured_count += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TIntervalState(key={self.key}, "
                f"captured={self.captured_count}/{len(self.captured)}, "
                f"committed={self.committed})")


@dataclass(frozen=True, slots=True)
class Candidate:
    """One probe-able (t-interval state, EI) pair at the current chronon."""

    state: TIntervalState
    ei: ExecutionInterval


@dataclass(frozen=True, slots=True)
class ScoreKey:
    """A policy's score as one row of integer weights on fixed features.

    The score of candidate EI ``I`` of t-interval ``eta`` at chronon
    ``T`` is the weighted sum of:

    * ``finish`` / ``start`` — ``I``'s deadline ``T_f`` / start ``T_s``;
    * ``rank`` — the rank of ``eta``'s profile;
    * ``need`` — how many EIs of ``eta`` must be captured;
    * ``captured`` — how many EIs of ``eta`` are captured;
    * ``deadlines`` — M-EDF's sum over ``eta``'s uncaptured EIs of their
      deadlines, less ``T`` for each one already open;
    * ``pool`` — how many candidates ``I``'s resource has this chronon;
    * ``noise`` — ``I``'s uniform draw in ``[0, 2**16)``, :func:`noise`
      of its ``(profile_id, tinterval_id, ei_id)``;
    * ``chronon`` — ``T`` itself; ``const`` — one.

    :meth:`Policy.score` evaluates the row for one candidate, the block
    kernel (:mod:`repro.simulation.batch`) as columns, and the event
    engine from its aggregates. ``chronon`` and ``const`` move every
    candidate of a chronon alike, so those two leave them out.
    """

    finish: int = 0
    start: int = 0
    rank: int = 0
    need: int = 0
    captured: int = 0
    deadlines: int = 0
    pool: int = 0
    noise: int = 0
    chronon: int = 0
    const: int = 0

    def score_range(self, ranges: Mapping[str, tuple[int, int]]
                    ) -> tuple[int, int]:
        """``(lo, hi)`` the row's score stays in when each feature named
        in ``ranges`` stays in its ``(lo, hi)``; features ``ranges``
        does not name are left out of the sum."""
        lo = hi = 0
        for feature, (least, most) in ranges.items():
            weight = getattr(self, feature)
            lo += min(weight * least, weight * most)
            hi += max(weight * least, weight * most)
        return lo, hi


class Policy:
    """Scores candidate EIs; the proxy probes the lowest-scored ones.

    The score is one :class:`ScoreKey` row, ``key``: a new policy is one
    row. A policy whose score is not a row overrides :meth:`score`
    instead and runs on the reference path only (:func:`key_of`).
    """

    #: Short name used in reports ("S-EDF", "MRSF", "M-EDF", ...).
    name: str = "?"
    #: Information level per the paper's classification.
    level: PolicyLevel = EI_LEVEL
    #: The score row (None: :meth:`score` is overridden).
    key: ScoreKey | None = None
    #: Candidates per resource at the last observed chronon, for rows
    #: that weigh ``pool``; replaced, never mutated.
    _pool: Mapping[int, int] = MappingProxyType({})

    def score(self, candidate: Candidate, chronon: Chronon) -> float:
        """Priority of probing this candidate now; lower is better."""
        key = self.key
        if key is None:
            raise NotImplementedError(
                f"{type(self).__name__} has neither a score row (key) nor "
                "a score method")
        ei = candidate.ei
        state = candidate.state
        value = (key.finish * ei.finish + key.start * ei.start
                 + key.rank * state.profile_rank + key.need * state.need
                 + key.captured * state.captured_count
                 + key.chronon * chronon + key.const)
        if key.deadlines:
            # A plain loop: a generator over uncaptured_eis() costs 2-3x.
            captured = state.captured
            deadlines = 0
            for sibling in state.eta.eis:
                if not captured[sibling.ei_id]:
                    deadlines += sibling.finish
                    if sibling.start <= chronon:
                        deadlines -= chronon
            value += key.deadlines * deadlines
        if key.pool:
            value += key.pool * self._pool.get(ei.resource_id, 1)
        if key.noise:
            eta = state.eta
            value += key.noise * int(
                noise(eta.profile_id, eta.tinterval_id, ei.ei_id))
        return float(value)

    def observe_candidates(self, candidates: Sequence[Candidate],
                           chronon: Chronon) -> None:
        """Hook called once per chronon with the full candidate bag.

        Counts the candidates on each resource when the row weighs
        ``pool``, and does nothing otherwise. :func:`plan_chronon` calls
        it right before selection, so custom policies need no proxy
        changes.
        """
        if self.key is not None and self.key.pool:
            self._pool = Counter(c.ei.resource_id for c in candidates)

    def label(self, preemptive: bool) -> str:
        """Display name with the paper's (P)/(NP) suffix convention."""
        return f"{self.name}({'P' if preemptive else 'NP'})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def key_of(policy: Policy) -> ScoreKey | None:
    """The row the block kernel and the event engine run ``policy`` by.

    None when its class overrides :meth:`Policy.score` or
    :meth:`Policy.observe_candidates` (or has no row): such a policy
    scores in ways a row cannot say, and only the reference path runs it.
    """
    cls = type(policy)
    if (cls.score is Policy.score
            and cls.observe_candidates is Policy.observe_candidates):
        return policy.key
    return None


def noise(*ids) -> np.ndarray:
    """The top 16 bits of a splitmix64 fold of ``ids`` (ints or integer
    columns, broadcast), as int32: a column draws as its elements do."""
    word = np.zeros(np.broadcast_shapes(*map(np.shape, ids)), np.uint64)
    for part in ids:
        word += np.asarray(part).astype(np.uint64)
        word += np.uint64(0x9E3779B97F4A7C15)
        word ^= word >> np.uint64(30)
        word *= np.uint64(0xBF58476D1CE4E5B9)
        word ^= word >> np.uint64(27)
        word *= np.uint64(0x94D049BB133111EB)
        word ^= word >> np.uint64(31)
    return (word >> np.uint64(48)).astype(np.int32)


def filter_blocked(candidates: Sequence[Candidate], breaker,
                   chronon: Chronon) -> Sequence[Candidate]:
    """Drop candidates whose resource a circuit breaker has quarantined.

    ``breaker`` is duck-typed (anything with ``is_blocked(resource_id,
    chronon)``, see :class:`repro.faults.CircuitBreaker`); ``None``
    returns the candidates unchanged.
    """
    if breaker is None:
        return candidates
    # Probe the breaker once per distinct resource; with nothing blocked
    # (the common healthy case) the input sequence is returned as-is,
    # avoiding a per-chronon list re-allocation.
    blocked = {resource_id
               for resource_id in {c.ei.resource_id for c in candidates}
               if breaker.is_blocked(resource_id, chronon)}
    if not blocked:
        return candidates
    return [candidate for candidate in candidates
            if candidate.ei.resource_id not in blocked]


def _tie_break(candidate: Candidate, chronon: Chronon
               ) -> tuple[int, int, int, int, int]:
    ei = candidate.ei
    return (ei.finish - chronon, ei.start, ei.resource_id,
            candidate.state.eta.profile_id, candidate.state.eta.tinterval_id)


@dataclass(frozen=True, slots=True)
class ProbeDecision:
    """One probe the policy decided on: the resource and the EI that won it.

    The ``selected`` candidate is the best-ranked EI on the probed
    resource — the EI the policy "returned" in the paper's terms. Its
    t-interval becomes *committed* (drives non-preemptive priority);
    other EIs captured by the same probe are free riders and do not.
    """

    resource_id: int
    selected: Candidate


def select_probes(policy: Policy, candidates: Sequence[Candidate],
                  chronon: Chronon, budget: int,
                  preemptive: bool) -> list[ProbeDecision]:
    """Choose up to ``budget`` resources to probe at ``chronon``.

    A probe targets one *resource* and captures every active candidate EI
    on it, so selection aggregates candidates by resource: a resource's
    priority is the best (lowest) policy score among its candidate EIs,
    then the most urgent deadline, then the number of candidate EIs the
    probe would serve (coverage). Coverage tie-breaking is what makes
    every policy per-chronon-optimal on rank-1 / unit-width workloads —
    the property §5.3 of the paper relies on ("for rank(P) = 1 the gained
    completeness ... is optimal").

    Non-preemptive mode (§4.2.1) runs two passes: EIs of previously
    *committed* t-intervals first, then — with leftover budget only —
    EIs of t-intervals the policy has not yet selected.

    Returns at most ``budget`` probe decisions (distinct resources).
    """
    if budget <= 0 or not candidates:
        return []
    if preemptive:
        pools: list[Sequence[Candidate]] = [candidates]
    else:
        committed = [c for c in candidates if c.state.committed]
        fresh = [c for c in candidates if not c.state.committed]
        pools = [committed, fresh]

    decisions: list[ProbeDecision] = []
    chosen_set: set[int] = set()
    for pool in pools:
        if len(decisions) >= budget:
            break
        by_resource: dict[int, list[tuple]] = {}
        for candidate in pool:
            # (policy score, deadline urgency, start, ids) per candidate;
            # a resource inherits the best of its candidates.
            entry = (policy.score(candidate, chronon),
                     *_tie_break(candidate, chronon), candidate)
            by_resource.setdefault(candidate.ei.resource_id,
                                   []).append(entry)
        # A resource's rank: its best candidate's (score, deadline), then
        # how many candidate EIs the probe would serve, then identity.
        best_of: dict[int, tuple] = {
            resource_id: min(entries, key=lambda entry: entry[:-1])
            for resource_id, entries in by_resource.items()
        }
        # Only the best `budget` resources can win (plus room for those
        # already chosen by the previous pool), so an O(R log budget)
        # partial selection replaces the full sort. heapq.nsmallest is
        # documented as equivalent to sorted(...)[:n], so ranking is
        # unchanged.
        needed = budget - len(decisions) + len(chosen_set)
        ranked = heapq.nsmallest(
            needed, by_resource,
            key=lambda resource_id: (best_of[resource_id][0],
                                     best_of[resource_id][1],
                                     -len(by_resource[resource_id]),
                                     best_of[resource_id][2:-1]),
        )
        for resource_id in ranked:
            if resource_id in chosen_set:
                continue
            if len(decisions) >= budget:
                break
            decisions.append(ProbeDecision(
                resource_id=resource_id,
                selected=best_of[resource_id][-1]))
            chosen_set.add(resource_id)
    return decisions


def retire(active: Sequence[TIntervalState], chronon: Chronon
           ) -> tuple[list[TIntervalState], list[TIntervalState]]:
    """``(still_active, doomed)`` of ``active`` at ``chronon``.

    A complete state leaves. A doomed one (its need can no longer be
    met) is reported exactly once, the moment doom hits,
    and its carcass stays while any uncaptured EI window is still open:
    an EI-level policy sees EIs only and cannot tell (§4.2.2). At
    :data:`EPOCH_OVER` nothing incomplete survives — the flush.
    """
    still_active: list[TIntervalState] = []
    doomed: list[TIntervalState] = []
    for state in active:
        if state.is_complete:
            continue
        if not state.doom_reported and state.is_expired(chronon):
            state.doom_reported = True
            doomed.append(state)
        if not (state.doom_reported
                and all(ei.expired_at(chronon)
                        for ei in state.uncaptured_eis())):
            still_active.append(state)
    return still_active, doomed


def plan_chronon(active: Sequence[TIntervalState], policy: Policy,
                 chronon: Chronon, budget: int, preemptive: bool,
                 breaker=None) -> tuple[list, list, Sequence, list]:
    """The first half of a chronon: who is left, and what to probe.

    ``active`` already holds this chronon's arrivals. :func:`retire`
    it; then, unless the budget is zero or nothing is pending, build
    ``cands(I)`` — every uncaptured EI active now, minus those of doomed
    t-intervals when the policy's level lets it see doom (rank and
    multi-EI levels look at the siblings; an EI-level policy such as
    S-EDF keeps wasting budget on them), minus quarantined resources —
    show it to the policy and let it choose. Returns ``(still_active,
    doomed, candidates, decisions)``, the last two empty when there is
    nothing to probe.
    """
    still_active, doomed = retire(active, chronon)
    candidates: Sequence[Candidate] = ()
    decisions: list[ProbeDecision] = []
    if budget > 0 and still_active:
        sees_doom = policy.level != EI_LEVEL
        candidates = filter_blocked(
            [Candidate(state, ei)
             for state in still_active
             if not (sees_doom and state.doom_reported)
             for ei in state.probeable_eis(chronon)],
            breaker, chronon)
        if candidates:
            policy.observe_candidates(candidates, chronon)
            decisions = select_probes(policy, candidates, chronon, budget,
                                      preemptive)
    return still_active, doomed, candidates, decisions


def settle_chronon(decisions: Sequence[ProbeDecision],
                   answered: Container[int],
                   candidates: Sequence[Candidate], chronon: Chronon,
                   schedule) -> Iterator[tuple[Candidate, bool]]:
    """The second half of a chronon: book the probe round.

    Every selection commits its t-interval whether or not the request
    came back — the proxy spent budget on it. Only ``answered``
    resources enter ``schedule``, and every active uncaptured candidate
    EI on one is captured, selected or free rider (where intra-resource
    overlap pays off) and its t-interval *committed*: the investment
    the non-preemptive mode protects (this broad commitment reproduces
    the paper's reported P-vs-NP gaps; see DESIGN.md).

    A generator, to be consumed in full: ``(candidate, completed)`` per
    capture in candidate order, ``completed`` true on the one capture
    that completes its t-interval — where the caller counts or notifies.
    """
    for decision in decisions:
        decision.selected.state.committed = True
        if decision.resource_id in answered:
            schedule.add_probe(decision.resource_id, chronon)
    for candidate in candidates:
        ei = candidate.ei
        state = candidate.state
        if (ei.resource_id in answered and ei.active_at(chronon)
                and not state.captured[ei.ei_id]):
            was_complete = state.is_complete
            state.mark_captured(ei.ei_id)
            state.committed = True
            yield candidate, state.is_complete and not was_complete
