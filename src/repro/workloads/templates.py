"""Profile templates: turning traces + resource choices into profiles.

The paper's evaluation uses the **AuctionWatch(k)** template: monitor an
item sold in ``k`` parallel auctions and notify the user once a new bid was
posted in *all* of them. Each notification round is one t-interval whose
EIs are derived from the per-auction update streams via a delivery
restriction (overwrite or window(W)).

Two grouping strategies are provided for composing the per-resource EI
streams into t-intervals:

* ``"indexed"`` (default) — the i-th update round of every resource forms
  the i-th t-interval ("the i-th bid on each auction"); faithful to the
  AuctionWatch semantics and guaranteed rank = k for every t-interval.
* ``"overlap"`` — anchored on the resource with the fewest EIs, each
  t-interval combines EIs of the other resources that *temporally overlap*
  the anchor EI (the arbitrage semantics of Figure 1, where price
  observations must refer to overlapping validity periods).

A ``SingleResourceTemplate`` produces rank-1 profiles (every EI is its own
t-interval) — the simple-profile baseline (e.g. a Google-Reader-style feed
subscription).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.profile import Profile, ProfileColumns, narrowed
from repro.core.timeline import Epoch
from repro.traces.events import UpdateTrace
from repro.workloads.restrictions import DeliveryRestriction, WindowRestriction

__all__ = [
    "AuctionWatchTemplate",
    "PeriodicWatchTemplate",
    "SingleResourceTemplate",
    "ProfileTemplate",
]

Grouping = Literal["indexed", "overlap"]



class AuctionWatchTemplate:
    """AuctionWatch(k): capture every bid round across k parallel auctions.

    :meth:`build_profile` instantiates one profile as objects and is the
    reference; :meth:`build_columns` instantiates many at once as
    :class:`~repro.core.profile.ProfileColumns` — the same t-intervals,
    row for row — for the two built-in restrictions.

    Parameters
    ----------
    restriction:
        Delivery restriction converting update chronons into EIs.
    grouping:
        ``"indexed"`` or ``"overlap"`` (see module docstring).
    """

    def __init__(self, restriction: DeliveryRestriction,
                 grouping: Grouping = "indexed") -> None:
        if grouping not in ("indexed", "overlap"):
            raise WorkloadError(f"unknown grouping {grouping!r}")
        self._restriction = restriction
        self._grouping = grouping

    def build_profile(self, resource_ids: Sequence[int], trace: UpdateTrace,
                      epoch: Epoch, name: str = "",
                      profile_id: int = -1) -> Profile:
        """Instantiate the template for a concrete resource tuple.

        Resources without any update contribute no rounds; a profile over
        resources that never all update together ends up empty (and does
        not count toward GC).
        """
        if not resource_ids:
            raise WorkloadError("AuctionWatch needs at least one resource")
        if len(set(resource_ids)) != len(resource_ids):
            raise WorkloadError(
                f"duplicate resources in AuctionWatch: {resource_ids}"
            )
        streams = [
            self._restriction.execution_intervals(
                resource_id, trace.update_chronons(resource_id), epoch)
            for resource_id in resource_ids
        ]
        if self._grouping == "indexed":
            tintervals = _group_indexed(streams, profile_id)
        else:
            tintervals = _group_overlap(streams, profile_id)
        label = name or f"AuctionWatch({len(resource_ids)})"
        return Profile(tintervals, profile_id=profile_id, name=label)

    def build_columns(self, ranks: np.ndarray, resource_ids: np.ndarray,
                      names: Sequence[str], trace: UpdateTrace,
                      epoch: Epoch) -> ProfileColumns:
        """Every profile of a set at once, as EI-row columns.

        Profile ``p`` watches the next ``ranks[p]`` (>= 1, distinct)
        entries of the flat ``resource_ids``. Its rows equal what
        :meth:`build_profile` builds for those resources — the grouping
        runs over all profiles together, one array pass per slot. The
        columns are ``int32``: the trace-sized bounds narrow before the
        rows are gathered from them (:class:`ValueError` naming the
        column if a resource id or chronon passes ``int32``).
        """
        rids, starts, finishes, heads = _bulk_bounds(self._restriction,
                                                     trace, epoch)
        if not ranks.size:
            none = np.empty(0, dtype=np.int32)
            return ProfileColumns(tuple(names), *[none] * 6)
        # Stream j (the EIs of resource_ids[j]) is rows lo[j]:hi[j].
        lo = np.searchsorted(rids, resource_ids, side="left")
        hi = np.searchsorted(rids, resource_ids, side="right")
        rids, starts, finishes = map(narrowed, ("ei_resource", "ei_start",
                                                "ei_finish"),
                                     (rids, starts, finishes))
        first = np.cumsum(ranks) - ranks
        width = int(ranks.max())
        if self._grouping == "overlap":
            # Slot 0 is the anchor — the first of the sparsest streams —
            # and the other streams follow in their given order.
            slot = np.arange(lo.size) - np.repeat(first, ranks)
            anchor = np.repeat(np.minimum.reduceat(
                (hi - lo) * width + slot, first) % width, ranks)
            stream = np.repeat(first, ranks) + np.where(
                slot == 0, anchor, slot - (slot <= anchor))
            lo, hi = lo[stream], hi[stream]
        # One candidate t-interval per EI of slot 0's stream (overlap) or
        # per round every stream reaches (indexed); member[c, t] is the
        # bounds row of candidate c's slot-t EI.
        count = np.minimum.reduceat(hi - lo, first)
        owner = np.repeat(np.arange(ranks.size, dtype=np.int32), count)
        at = np.arange(owner.size) - np.repeat(np.cumsum(count) - count,
                                               count)
        member = np.empty((owner.size, width), dtype=np.int64)
        member[:, 0] = lo[first[owner]] + at
        valid = np.ones(owner.size, dtype=bool)
        if self._grouping == "overlap":
            # The bounds are sorted by (resource, start) and a stream's
            # finishes never decrease, so (stream's first row) * span +
            # finish ascends over all rows: the earliest EI of a stream
            # not finished before the anchor opens is one searchsorted
            # away, and it overlaps the anchor iff it starts by the
            # anchor's end.
            span = epoch.last + 1
            fused = np.repeat(heads, np.diff(np.append(heads, rids.size))) \
                * span + finishes
            opens, closes = starts[member[:, 0]], finishes[member[:, 0]]
        for slot in range(1, width):
            has = np.flatnonzero(ranks[owner] > slot)
            stream = first[owner[has]] + slot
            if self._grouping == "indexed":
                found = lo[stream] + at[has]
            else:
                found = np.searchsorted(fused,
                                        lo[stream] * span + opens[has])
                valid[has] &= (found < hi[stream]) & (
                    starts[np.minimum(found, fused.size - 1)] <= closes[has])
            member[has, slot] = found
        member, owner = member[valid], owner[valid]
        kept = np.bincount(owner, minlength=ranks.size)
        tinterval = np.arange(owner.size, dtype=np.int32) - np.repeat(
            (np.cumsum(kept) - kept).astype(np.int32), kept)
        size = ranks.astype(np.int32)[owner]
        rows = member[np.arange(width) < size[:, None]]
        return ProfileColumns(
            tuple(names), np.repeat(owner, size), np.repeat(tinterval, size),
            rids[rows], starts[rows], finishes[rows], np.repeat(size, size))


class SingleResourceTemplate:
    """Rank-1 profiles: every EI of every chosen resource is a t-interval.

    Models simple feed subscriptions (each update must be delivered on its
    own; no cross-resource coordination).
    """

    def __init__(self, restriction: DeliveryRestriction) -> None:
        self._restriction = restriction

    def build_profile(self, resource_ids: Sequence[int], trace: UpdateTrace,
                      epoch: Epoch, name: str = "",
                      profile_id: int = -1) -> Profile:
        """One rank-1 t-interval per EI of each chosen resource."""
        if not resource_ids:
            raise WorkloadError("template needs at least one resource")
        tintervals: list[TInterval] = []
        for resource_id in resource_ids:
            eis = self._restriction.execution_intervals(
                resource_id, trace.update_chronons(resource_id), epoch)
            base = len(tintervals)
            tintervals.extend(
                TInterval([ei], tinterval_id=base + offset,
                          profile_id=profile_id)
                for offset, ei in enumerate(eis))
        label = name or f"Subscribe({len(resource_ids)})"
        return Profile(tintervals, profile_id=profile_id, name=label)


class PeriodicWatchTemplate:
    """Temporal-trigger t-intervals: "check all resources every P chronons".

    Section 3 of the paper allows execution intervals to begin on a
    *temporal* event ("e.g., every ten minutes") rather than an update.
    This template fires a monitoring round every ``period`` chronons: the
    i-th t-interval holds one EI per resource over the shared window
    ``[1 + i*period, min(1 + i*period + width, K)]``.

    Update traces are ignored (the trigger is the clock); the ``trace``
    parameter exists for signature compatibility with the other
    templates.

    Parameters
    ----------
    period:
        Chronons between rounds (>= 1).
    width:
        Extra chronons each round's window stays open (0 = unit EIs).
    phase:
        Offset of the first round (0 = the round opens at chronon 1).
    """

    def __init__(self, period: int, width: int = 0, phase: int = 0) -> None:
        if period < 1:
            raise WorkloadError(f"period must be >= 1, got {period}")
        if width < 0:
            raise WorkloadError(f"width must be >= 0, got {width}")
        if phase < 0:
            raise WorkloadError(f"phase must be >= 0, got {phase}")
        self._period = period
        self._width = width
        self._phase = phase

    def build_profile(self, resource_ids: Sequence[int],
                      trace: UpdateTrace | None, epoch: Epoch,
                      name: str = "", profile_id: int = -1) -> Profile:
        """Temporal rounds: one t-interval per period tick."""
        if not resource_ids:
            raise WorkloadError("PeriodicWatch needs at least one resource")
        if len(set(resource_ids)) != len(resource_ids):
            raise WorkloadError(
                f"duplicate resources in PeriodicWatch: {resource_ids}"
            )
        tintervals: list[TInterval] = []
        start = 1 + self._phase
        while start <= epoch.last:
            finish = min(epoch.last, start + self._width)
            tintervals.append(TInterval([
                ExecutionInterval(resource_id, start, finish)
                for resource_id in resource_ids
            ], tinterval_id=len(tintervals), profile_id=profile_id))
            start += self._period
        label = name or f"PeriodicWatch({len(resource_ids)})"
        return Profile(tintervals, profile_id=profile_id, name=label)


# A template is anything exposing build_profile; the classes above comply.
ProfileTemplate = (AuctionWatchTemplate | SingleResourceTemplate
                   | PeriodicWatchTemplate)


def _bulk_bounds(restriction: DeliveryRestriction, trace: UpdateTrace,
                 epoch: Epoch) -> tuple[np.ndarray, ...]:
    """``(resource, start, finish)`` of every EI of a trace, as columns,
    plus the row at which each resource's EIs begin.

    Sorted by (resource, start): a resource's rows are what
    ``restriction.execution_intervals`` derives from its update
    chronons, in order — the built-in formulas applied to the trace's
    (cached) sorted update columns at once, since they only couple
    consecutive chronons of one resource. Built-in restrictions only.
    """
    rids, starts, heads = trace.sorted_updates()
    if isinstance(restriction, WindowRestriction):
        return (rids, starts,
                np.minimum(starts + restriction.window, epoch.last), heads)
    # Overwrite: each EI ends where the resource's next update starts;
    # the last EI of every resource runs to the epoch end.
    finishes = np.full_like(starts, epoch.last)
    finishes[:-1] = starts[1:] - 1
    finishes[heads[1:] - 1] = epoch.last
    return rids, starts, np.maximum(starts, finishes), heads


def _group_indexed(streams: list[list[ExecutionInterval]],
                   profile_id: int = -1) -> list[TInterval]:
    """i-th EI of each stream forms the i-th t-interval."""
    if any(not stream for stream in streams):
        return []
    rounds = min(len(stream) for stream in streams)
    return [TInterval([stream[i] for stream in streams],
                      tinterval_id=i, profile_id=profile_id)
            for i in range(rounds)]


def _group_overlap(streams: list[list[ExecutionInterval]],
                   profile_id: int = -1) -> list[TInterval]:
    """Anchor on the sparsest stream; match overlapping EIs elsewhere.

    For each anchor EI, every other stream contributes its earliest EI that
    temporally overlaps the anchor; anchor EIs without a full match are
    dropped (no valid simultaneous observation exists).
    """
    if any(not stream for stream in streams):
        return []
    anchor_index = min(range(len(streams)), key=lambda i: len(streams[i]))
    anchor_stream = streams[anchor_index]
    tintervals: list[TInterval] = []
    for anchor_ei in anchor_stream:
        members = [anchor_ei]
        complete = True
        for index, stream in enumerate(streams):
            if index == anchor_index:
                continue
            match = next(
                (ei for ei in stream if ei.overlaps(anchor_ei)), None)
            if match is None:
                complete = False
                break
            members.append(match)
        if complete:
            tintervals.append(TInterval(members, tinterval_id=len(tintervals),
                                        profile_id=profile_id))
    return tintervals
