"""Update-event traces.

The experimental pipeline of the paper starts from a *trace* of update
events: each event says "resource ``r`` changed at chronon ``t``" (a bid was
posted, a feed item was published, a price moved). Delivery restrictions
(:mod:`repro.workloads.restrictions`) then turn event streams into execution
intervals.

The CSV format written/read here is deliberately trivial
(``resource_id,chronon[,payload]``) so that a real trace — e.g. the paper's
eBay bid feed — can be dropped in without code changes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.errors import TraceFormatError
from repro.core.timeline import Chronon, Epoch

__all__ = ["UpdateEvent", "UpdateTrace"]


@dataclass(frozen=True, slots=True, order=True)
class UpdateEvent:
    """A single update to a resource.

    Ordering is ``(chronon, resource_id, payload)`` so traces sort into
    timeline order naturally.
    """

    chronon: Chronon
    resource_id: int
    payload: str = ""

    def __post_init__(self) -> None:
        if self.chronon < 1:
            raise ValueError(f"event chronon must be >= 1, got {self.chronon}")
        if self.resource_id < 0:
            raise ValueError(
                f"event resource_id must be >= 0, got {self.resource_id}"
            )


class UpdateTrace:
    """An immutable, per-resource-indexed stream of update events.

    Parameters
    ----------
    events:
        The update events; stored sorted by (chronon, resource).
    epoch:
        The epoch the trace spans. Events outside the epoch are rejected.
    """

    __slots__ = ("_events", "_by_resource", "epoch", "_arrays",
                 "_payloads", "_unique_chronons", "_sorted_updates",
                 "__weakref__")

    def __init__(self, events: Iterable[UpdateEvent], epoch: Epoch) -> None:
        self.epoch = epoch
        self._events: tuple[UpdateEvent, ...] | None = tuple(sorted(events))
        self._by_resource: dict[int, list[UpdateEvent]] | None = {}
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._payloads: list[str] | None = None
        self._unique_chronons: dict[int, np.ndarray] = {}
        self._sorted_updates: tuple[np.ndarray, ...] | None = None
        for event in self._events:
            if event.chronon not in epoch:
                raise TraceFormatError(
                    f"event at chronon {event.chronon} outside epoch "
                    f"[1, {epoch.length}]"
                )
            self._by_resource.setdefault(event.resource_id, []).append(event)

    @classmethod
    def from_columns(cls, chronons: np.ndarray, resource_ids: np.ndarray,
                     epoch: Epoch,
                     payloads: list[str] | None = None) -> "UpdateTrace":
        """Build a trace from columnar arrays (the fast-generation path).

        Validation happens vectorized and the columns are stored
        directly in timeline order; :class:`UpdateEvent` objects are
        materialized lazily, the first time something iterates the trace
        (the vectorized restriction/template consumers never do — they
        read the columns). The result is equal to
        ``UpdateTrace(events, epoch)`` over the same data.

        Raises
        ------
        TraceFormatError
            On mismatched column lengths or chronons/resources outside
            their valid ranges (also the corrupted-cache-entry guard).
        """
        chronons = np.asarray(chronons, dtype=np.int64)
        resource_ids = np.asarray(resource_ids, dtype=np.int64)
        if chronons.shape != resource_ids.shape or chronons.ndim != 1:
            raise TraceFormatError(
                f"mismatched trace columns: {chronons.shape} chronons vs "
                f"{resource_ids.shape} resource ids"
            )
        if payloads is not None and len(payloads) != chronons.size:
            raise TraceFormatError(
                f"mismatched trace columns: {len(payloads)} payloads vs "
                f"{chronons.size} events"
            )
        if chronons.size:
            if int(chronons.min()) < 1 or int(chronons.max()) > epoch.length:
                raise TraceFormatError(
                    f"event chronons outside epoch [1, {epoch.length}]"
                )
            if int(resource_ids.min()) < 0:
                raise TraceFormatError("negative resource id in trace")
        if payloads is None:
            order = np.lexsort((resource_ids, chronons))
            sorted_payloads = None
        else:
            payload_keys = np.asarray(payloads, dtype=np.str_)
            order = np.lexsort((payload_keys, resource_ids, chronons))
            sorted_payloads = [payloads[index] for index in order.tolist()]
        trace = cls.__new__(cls)
        trace.epoch = epoch
        trace._events = None
        trace._by_resource = None
        trace._arrays = (resource_ids[order], chronons[order])
        trace._payloads = sorted_payloads
        trace._unique_chronons = {}
        trace._sorted_updates = None
        return trace

    def _materialize(self) -> tuple[UpdateEvent, ...]:
        """Build the event objects of a column-constructed trace."""
        if self._events is None:
            resource_ids, chronons = self._arrays
            if self._payloads is None:
                self._events = tuple(
                    UpdateEvent(chronon, resource_id)
                    for chronon, resource_id
                    in zip(chronons.tolist(), resource_ids.tolist()))
            else:
                self._events = tuple(
                    UpdateEvent(chronon, resource_id, payload)
                    for chronon, resource_id, payload
                    in zip(chronons.tolist(), resource_ids.tolist(),
                           self._payloads))
        if self._by_resource is None:
            by_resource: dict[int, list[UpdateEvent]] = {}
            for event in self._events:
                by_resource.setdefault(event.resource_id, []).append(event)
            self._by_resource = by_resource
        return self._events

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached columnar view: ``(resource_ids, chronons)`` in event order.

        The structure-of-arrays form that the vectorized restriction and
        template paths consume with ``np.searchsorted`` instead of
        iterating event objects.
        """
        if self._arrays is None:
            count = len(self._events)
            resource_ids = np.fromiter(
                (event.resource_id for event in self._events),
                dtype=np.int64, count=count)
            chronons = np.fromiter(
                (event.chronon for event in self._events),
                dtype=np.int64, count=count)
            self._arrays = (resource_ids, chronons)
        return self._arrays

    def unique_chronons(self, resource_id: int) -> np.ndarray:
        """Cached array of deduplicated, sorted update chronons.

        Vectorized counterpart of :meth:`update_chronons` (events are
        stored sorted, so first-seen order equals ascending order); the
        array is computed once per resource and shared by every profile
        that watches the resource.
        """
        cached = self._unique_chronons.get(resource_id)
        if cached is None:
            if self._by_resource is None:
                resource_ids, chronons = self._arrays
                mine = chronons[resource_ids == resource_id]
            else:
                events = self._by_resource.get(resource_id, ())
                mine = np.fromiter(
                    (event.chronon for event in events),
                    dtype=np.int64, count=len(events))
            # Events are stored chronon-sorted, so a keep-first mask
            # dedups without the sort inside np.unique.
            if mine.size:
                keep = np.empty(mine.size, dtype=bool)
                keep[0] = True
                np.not_equal(mine[1:], mine[:-1], out=keep[1:])
                cached = mine[keep]
            else:
                cached = mine
            self._unique_chronons[resource_id] = cached
        return cached

    def sorted_updates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(resource_ids, chronons, heads)`` of the distinct updates.

        The (resource, chronon) pairs of the trace, deduplicated and
        sorted by resource then chronon — every resource's
        :meth:`unique_chronons` laid end to end — with ``heads`` the row
        at which each resource's run begins. One lexsort per trace,
        shared by every generator built on it.
        """
        if self._sorted_updates is None:
            resource_ids, chronons = self.as_arrays()
            order = np.lexsort((chronons, resource_ids))
            rids, chronons = resource_ids[order], chronons[order]
            head = np.ones(rids.size, dtype=bool)
            np.not_equal(rids[1:], rids[:-1], out=head[1:])
            keep = head.copy()
            keep[1:] |= chronons[1:] != chronons[:-1]
            self._sorted_updates = (rids[keep], chronons[keep],
                                    np.flatnonzero(head[keep]))
        return self._sorted_updates

    def __len__(self) -> int:
        if self._events is None:
            return int(self._arrays[0].size)
        return len(self._events)

    def __iter__(self) -> Iterator[UpdateEvent]:
        return iter(self._materialize())

    @property
    def resource_ids(self) -> list[int]:
        """Resources that have at least one event, ascending."""
        if self._by_resource is None:
            rids = np.sort(self._arrays[0])
            keep = np.empty(rids.size, dtype=bool)
            keep[:1] = True
            np.not_equal(rids[1:], rids[:-1], out=keep[1:])
            return rids[keep].tolist()
        return sorted(self._by_resource)

    def events_for(self, resource_id: int) -> tuple[UpdateEvent, ...]:
        """All events of one resource in chronon order."""
        self._materialize()
        return tuple(self._by_resource.get(resource_id, ()))

    def update_chronons(self, resource_id: int) -> list[Chronon]:
        """Chronons (deduplicated, sorted) at which the resource updates."""
        if self._by_resource is None:
            return self.unique_chronons(resource_id).tolist()
        seen: set[Chronon] = set()
        result: list[Chronon] = []
        for event in self._by_resource.get(resource_id, ()):
            if event.chronon not in seen:
                seen.add(event.chronon)
                result.append(event.chronon)
        return result

    def count_for(self, resource_id: int) -> int:
        """Number of events on one resource."""
        if self._by_resource is None:
            return int(np.count_nonzero(self._arrays[0] == resource_id))
        return len(self._by_resource.get(resource_id, ()))

    def mean_intensity(self) -> float:
        """Average number of events per resource over the epoch.

        This is the empirical counterpart of the paper's ``lambda``
        parameter ("average updates intensity per resource").
        """
        if len(self) == 0:
            return 0.0
        return len(self) / len(self.resource_ids)

    def restricted_to(self, resource_ids: Iterable[int]) -> "UpdateTrace":
        """A sub-trace containing only the given resources."""
        wanted = set(resource_ids)
        return UpdateTrace(
            (event for event in self._materialize()
             if event.resource_id in wanted),
            self.epoch,
        )

    def merged_with(self, other: "UpdateTrace") -> "UpdateTrace":
        """Union of two traces over the longer of the two epochs."""
        epoch = Epoch(max(self.epoch.length, other.epoch.length))
        return UpdateTrace(
            list(self._materialize()) + list(other._materialize()), epoch)

    # ------------------------------------------------------------------
    # CSV round-trip (real-trace drop-in path)
    # ------------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the trace as ``resource_id,chronon,payload`` rows."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["resource_id", "chronon", "payload"])
            for event in self._materialize():
                writer.writerow([event.resource_id, event.chronon,
                                 event.payload])

    @classmethod
    def from_csv(cls, path: str | Path,
                 epoch: Epoch | None = None) -> "UpdateTrace":
        """Load a trace from CSV; infers the epoch when not given.

        Raises
        ------
        TraceFormatError
            On malformed rows, non-integer fields, or events outside the
            provided epoch.
        """
        path = Path(path)
        events: list[UpdateEvent] = []
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise TraceFormatError(f"{path}: empty trace file")
            if header[:2] != ["resource_id", "chronon"]:
                raise TraceFormatError(
                    f"{path}: unexpected header {header!r}"
                )
            for line_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 2:
                    raise TraceFormatError(
                        f"{path}:{line_number}: expected at least 2 columns"
                    )
                try:
                    resource_id = int(row[0])
                    chronon = int(row[1])
                except ValueError as exc:
                    raise TraceFormatError(
                        f"{path}:{line_number}: non-integer field ({exc})"
                    ) from None
                payload = row[2] if len(row) > 2 else ""
                try:
                    events.append(UpdateEvent(chronon, resource_id, payload))
                except ValueError as exc:
                    raise TraceFormatError(
                        f"{path}:{line_number}: {exc}"
                    ) from None
        if epoch is None:
            horizon = max((event.chronon for event in events), default=1)
            epoch = Epoch(horizon)
        return cls(events, epoch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"UpdateTrace(events={len(self)}, "
                f"resources={len(self.resource_ids)}, K={self.epoch.length})")
