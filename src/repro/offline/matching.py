"""Probe assignment via incremental bipartite matching.

The offline approximation must decide whether a *set* of t-intervals is
jointly schedulable under the budget, and if so, produce the actual probe
schedule. We model this as bipartite matching:

* left nodes — execution intervals, with *identical* EIs (same resource,
  same window) merged, since one probe inside the shared window serves all
  of them;
* right nodes — ``(chronon, slot)`` pairs, one slot per unit of budget.

A t-interval set is schedulable (conservatively — see note) iff every EI
can be matched to a slot inside its window. We use Kuhn's augmenting-path
algorithm because it supports *incremental* insertion with rollback, which
is exactly what the Local-Ratio unwind phase needs. A failed ``try_add``
restores the matching *exactly* — including any assignments an
intermediate augmenting path rearranged — via an undo log, so callers can
probe feasibility freely.

Two accelerations are layered on top; both are outcome-invariant (whether
a t-interval can join the matching depends only on the accepted set — a
transversal-matroid property), so every accept/reject equals a
from-scratch Kuhn check of the accepted set plus the newcomer — the
specification in ``tests/offline/oracle.py``:

* a **Hall-style pigeonhole precheck** per t-interval: over the chronon
  span of its unassigned EIs, the EIs already *confined* to that span
  (window fully inside — they can never be rehomed out) plus the new EIs
  must fit the span's total budget. Maintained with two Fenwick trees
  (assigned-EI counts by start and by finish chronon), the check costs
  ``O(log K)`` and rejects most doomed insertions without touching the
  matching — failed augmentations are the dominant cost of the unwind;
* a **unit shortcut**: while every assigned EI is unit-width and the
  incoming t-interval is too, slots at different chronons are independent,
  so per-chronon occupancy counters decide feasibility exactly and
  assignment is direct — no augmentation at all (the ``P^[1]`` regime the
  paper evaluates offline runs in).

Candidate slot lists are memoized per EI key, and slots are encoded as
single integers (``chronon * stride + index``), which keeps hashing cheap
on the augmentation hot path; the encoding preserves the ``(chronon,
index)`` visit order.

Note on conservatism: two *different* (non-identical) EIs of the same
resource with overlapping windows could share one probe, but the matcher
assigns them distinct slots. The resulting schedule is still feasible, and
final gained completeness is always evaluated against the produced
schedule, so shared captures are credited at evaluation time.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.budget import BudgetVector
from repro.core.errors import ModelError
from repro.core.intervals import TInterval
from repro.core.schedule import Schedule
from repro.core.timeline import Chronon, Epoch

__all__ = ["ProbeAssigner", "require_every_ei"]

def require_every_ei(tintervals: Iterable[TInterval], solver: str) -> None:
    """Refuse the first t-interval that needs fewer than all its EIs:
    ``solver`` probes every EI of what it accepts."""
    for eta in tintervals:
        if eta.need < eta.size:
            raise ModelError(
                f"{solver} captures every EI of a t-interval, but "
                f"t-interval ({eta.profile_id}, {eta.tinterval_id}) needs "
                f"{eta.need} of its {eta.size}")


# Merged EI identity: (resource_id, start, finish).
EIKey = tuple[int, int, int]
# A probe slot, encoded as ``chronon * stride + slot_index``.
Slot = int


class _Fenwick:
    """Minimal Fenwick (binary-indexed) tree over chronons ``1..size``."""

    __slots__ = ("_size", "_tree")

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        while index <= self._size:
            self._tree[index] += delta
            index += index & -index

    def prefix(self, index: int) -> int:
        """Sum of counts over ``1..index`` (0 for ``index <= 0``)."""
        if index > self._size:
            index = self._size
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total


class ProbeAssigner:
    """Incrementally assigns t-intervals' EIs to budgeted probe slots.

    Parameters
    ----------
    epoch:
        The scheduling epoch (slots exist for chronons ``1..K``).
    budget:
        Per-chronon slot capacities.
    """

    def __init__(self, epoch: Epoch, budget: BudgetVector) -> None:
        self._epoch = epoch
        self._budget = budget
        # Slot encoding stride: one more than the largest per-chronon
        # budget, so (chronon, index) order matches numeric order.
        self._stride = budget.max_over(epoch) + 1
        # Matching state: EI key -> slot, slot -> EI key.
        self._slot_of: dict[EIKey, Slot] = {}
        self._ei_at: dict[Slot, EIKey] = {}
        # Reference counts: how many accepted t-intervals use each EI key.
        self._refcount: dict[EIKey, int] = {}
        # Memoized slot lists per EI key (shared lists, never mutated).
        self._slots_cache: dict[EIKey, list[Slot]] = {}
        # Acceleration state:
        self._used_at: dict[Chronon, int] = {}  # chronon -> assigned slots
        self._starts = _Fenwick(epoch.last)     # assigned keys by start'
        self._finishes = _Fenwick(epoch.last)   # assigned keys by finish'
        self._non_unit = 0  # assigned keys wider than one chronon

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def try_add(self, eta: TInterval) -> bool:
        """Attempt to schedule all EIs of ``eta``; all-or-nothing.

        Returns True and keeps the assignments when every EI got a slot
        (or was already assigned for another accepted t-interval); on
        failure the matching is left exactly as before the call.
        """
        new_keys: list[EIKey] = []
        seen: set[EIKey] = set()
        for ei in eta:
            key: EIKey = (ei.resource_id, ei.start, ei.finish)
            if key in self._slot_of or key in seen:
                continue  # identical EI already scheduled: free ride
            seen.add(key)
            new_keys.append(key)

        if new_keys:
            # The unit shortcut is exact on its own, so the Hall precheck
            # would be pure overhead there; run it only when the insert
            # will go through Kuhn augmentation.
            if (not self._non_unit
                    and all(key[1] == key[2] for key in new_keys)):
                if not self._match_unit(new_keys):
                    return False
                for ei in eta:
                    key = (ei.resource_id, ei.start, ei.finish)
                    self._refcount[key] = self._refcount.get(key, 0) + 1
                return True
            if not self._admissible(new_keys):
                return False

        if not self._match_new_keys(new_keys):
            return False
        for ei in eta:
            key = (ei.resource_id, ei.start, ei.finish)
            self._refcount[key] = self._refcount.get(key, 0) + 1
        return True

    def remove(self, eta: TInterval) -> None:
        """Release a previously accepted t-interval's assignments."""
        for ei in eta:
            key: EIKey = (ei.resource_id, ei.start, ei.finish)
            count = self._refcount.get(key, 0)
            if count == 0:
                continue
            if count == 1:
                del self._refcount[key]
                self._unassign(key)
            else:
                self._refcount[key] = count - 1

    def schedule(self) -> Schedule:
        """The probe schedule realizing the current matching."""
        schedule = Schedule()
        stride = self._stride
        for (resource_id, _start, _finish), slot in self._slot_of.items():
            schedule.add_probe(resource_id, slot // stride)
        return schedule

    @property
    def assigned_count(self) -> int:
        """Number of distinct EIs currently holding a slot."""
        return len(self._slot_of)

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------

    def _clip(self, key: EIKey) -> tuple[int, int]:
        """The key's window clipped to the epoch (empty when inverted)."""
        _resource_id, start, finish = key
        return (max(start, self._epoch.first),
                min(finish, self._epoch.last))

    def _admissible(self, new_keys: list[EIKey]) -> bool:
        """Hall-style pigeonhole precheck; False only on certain failure.

        Over the chronon span ``[a, b]`` of the new keys, every assigned
        key *confined* to the span (window inside ``[a, b]`` — it cannot
        be rehomed outside) occupies a slot the new keys compete for.
        ``count(finish <= b) - count(start < a)`` lower-bounds the
        confined count, so rejecting when new + confined exceed the
        span's budget never rejects a schedulable insertion.
        """
        span_first = self._epoch.last + 1
        span_last = 0
        for key in new_keys:
            first, last = self._clip(key)
            if first > last:
                return False  # window entirely outside the epoch
            span_first = min(span_first, first)
            span_last = max(span_last, last)
        confined = (self._finishes.prefix(span_last)
                    - self._starts.prefix(span_first - 1))
        capacity = self._budget.total_between(span_first, span_last)
        return len(new_keys) + confined <= capacity

    def _match_new_keys(self, new_keys: list[EIKey]) -> bool:
        """Assign every new key, or restore the matching and fail."""
        undo: list[tuple[EIKey, Slot | None]] = []
        for key in new_keys:
            if not self._augment(key, undo):
                stride = self._stride
                for undo_key, previous in reversed(undo):
                    current = self._slot_of[undo_key]
                    del self._ei_at[current]
                    self._used_at[current // stride] -= 1
                    if previous is None:
                        del self._slot_of[undo_key]
                        self._account_key(undo_key, removed=True)
                    else:
                        self._slot_of[undo_key] = previous
                        self._ei_at[previous] = undo_key
                        chronon = previous // stride
                        self._used_at[chronon] = \
                            self._used_at.get(chronon, 0) + 1
                return False
        return True

    def _match_unit(self, new_keys: list[EIKey]) -> bool:
        """Exact direct assignment while the whole matching is unit-width.

        Unit EIs can only ever occupy their own chronon's slots, so slots
        at different chronons are independent and per-chronon occupancy
        decides feasibility — equivalent to Kuhn on a graph where no
        augmenting path ever leaves a chronon.
        """
        first, last = self._epoch.first, self._epoch.last
        demanded: dict[Chronon, int] = {}
        for key in new_keys:
            chronon = key[1]
            if chronon < first or chronon > last:
                return False  # no slots exist outside the epoch
            demanded[chronon] = demanded.get(chronon, 0) + 1
        for chronon, count in demanded.items():
            if (self._used_at.get(chronon, 0) + count
                    > self._budget.at(chronon)):
                return False
        stride = self._stride
        for key in new_keys:
            base = key[1] * stride
            for index in range(self._budget.at(key[1])):
                if base + index not in self._ei_at:
                    self._assign(key, base + index)
                    break
        return True

    def _assign(self, key: EIKey, slot: Slot) -> None:
        """Bind a currently-unassigned key to a free slot."""
        self._slot_of[key] = slot
        self._ei_at[slot] = key
        chronon = slot // self._stride
        self._used_at[chronon] = self._used_at.get(chronon, 0) + 1
        self._account_key(key, removed=False)

    def _unassign(self, key: EIKey) -> None:
        slot = self._slot_of.pop(key, None)
        if slot is not None:
            del self._ei_at[slot]
            self._used_at[slot // self._stride] -= 1
            self._account_key(key, removed=True)

    def _account_key(self, key: EIKey, removed: bool) -> None:
        """Track an assigned key in the precheck trees and the count of
        non-unit keys (the unit shortcut holds while it is zero)."""
        first, last = self._clip(key)
        delta = -1 if removed else 1
        self._starts.add(first, delta)
        self._finishes.add(last, delta)
        if first != last:
            self._non_unit += delta

    # ------------------------------------------------------------------
    # Kuhn's algorithm internals
    # ------------------------------------------------------------------

    def _slots_for(self, key: EIKey) -> list[Slot]:
        cached = self._slots_cache.get(key)
        if cached is None:
            first, last = self._clip(key)
            stride = self._stride
            cached = [chronon * stride + index
                      for chronon in range(first, last + 1)
                      for index in range(self._budget.at(chronon))]
            self._slots_cache[key] = cached
        return cached

    def _augment(self, root: EIKey,
                 undo: list[tuple[EIKey, Slot | None]]) -> bool:
        """Find an augmenting path starting from an unmatched EI key.

        Iterative DFS (augmenting chains can exceed Python's recursion
        limit on large instances). ``frames`` holds ``(key, slot_iter)``
        pairs; ``pending[i]`` is the occupied slot frame ``i`` is waiting
        on while frame ``i + 1`` tries to re-home its occupant.

        Every assignment the winning chain flips is appended to ``undo``
        as ``(key, previous_slot)`` so a failed multi-EI insertion can be
        reverted exactly. A failed augmentation itself mutates nothing.
        """
        ei_at = self._ei_at
        visited: set[Slot] = set()
        frames: list[tuple[EIKey, object]] = [
            (root, iter(self._slots_for(root)))
        ]
        pending: list[Slot] = []
        while frames:
            key, slot_iter = frames[-1]
            pushed = False
            for slot in slot_iter:  # type: ignore[union-attr]
                if slot in visited:
                    continue
                visited.add(slot)
                occupant = ei_at.get(slot)
                if occupant is None:
                    # Free slot found: flip the whole augmenting chain.
                    undo.append((key, self._slot_of.get(key)))
                    ei_at[slot] = key
                    self._slot_of[key] = slot
                    chronon = slot // self._stride
                    self._used_at[chronon] = \
                        self._used_at.get(chronon, 0) + 1
                    for index in range(len(frames) - 2, -1, -1):
                        parent_key = frames[index][0]
                        parent_slot = pending[index]
                        undo.append((parent_key,
                                     self._slot_of.get(parent_key)))
                        ei_at[parent_slot] = parent_key
                        self._slot_of[parent_key] = parent_slot
                    self._account_key(root, removed=False)
                    return True
                pending.append(slot)
                frames.append((occupant, iter(self._slots_for(occupant))))
                pushed = True
                break
            if not pushed:
                frames.pop()
                if pending:
                    pending.pop()
        return False
