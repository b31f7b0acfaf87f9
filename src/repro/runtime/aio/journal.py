"""Crash-recovery journal: a JSONL write-ahead log of proxy decisions.

The async proxy is a live service — clients register profiles while it
runs — so process death must not forget who asked for what, nor deliver
a completed t-interval twice. The journal records the three durable
facts as newline-delimited JSON, *before* the in-memory effect they
describe is applied (write-ahead ordering):

* ``client`` / ``register`` — who registered which profile (a
  t-interval is its EI triples, with its ``need`` when that is below
  its size);
* ``unregister`` — a profile was cancelled;
* ``capture`` — one execution interval of a still in-flight t-interval
  captured its snapshot (so recovery does not lose partial progress);
* ``complete`` — a t-interval finished, with its captured snapshots
  (journaled before the notification is pushed, so a crash between the
  two re-delivers on replay at most the journaled completion — never a
  phantom one);
* ``tick`` — the last fully processed chronon, so recovery resumes the
  clock instead of replaying the epoch from the start.

Replay (:func:`replay_journal`) folds the log into a
:class:`JournalState`; a torn final line — the signature of ``kill -9``
mid-write — is ignored rather than fatal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.core.errors import ModelError
from repro.core.intervals import TInterval
from repro.core.profile import Profile
from repro.core.timeline import Chronon
from repro.runtime.server import Snapshot

__all__ = ["Journal", "JournalState", "replay_journal"]

_FORMAT = "repro/aio-journal"
_VERSION = 1


def _encode_profile(profile: Profile) -> list:
    return [eta.record() for eta in profile]


def _decode_profile(tintervals, name: str, profile_id: int) -> Profile:
    return Profile(
        [TInterval.from_record(
            record, f"journaled profile {profile_id} t-interval {index}")
         for index, record in enumerate(tintervals)],
        name=name)


def _encode_snapshot(snapshot: Snapshot) -> list:
    return [snapshot.resource_id, snapshot.probed_at, snapshot.version,
            snapshot.updated_at, snapshot.value]


def _decode_snapshot(fields) -> Snapshot:
    resource_id, probed_at, version, updated_at, value = fields
    return Snapshot(resource_id=resource_id, probed_at=probed_at,
                    version=version, updated_at=updated_at, value=value)


class Journal:
    """An append-only JSONL write-ahead log.

    Parameters
    ----------
    path:
        Log file; created (with a header line) when missing, appended
        to when present — recovery keeps writing to the same file.
    fsync:
        When True every record is fsynced before the write returns
        (durable against power loss, not just process death). Off by
        default: the chaos harness and tests kill processes, not
        machines.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file: IO[str] = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write({"type": "header", "format": _FORMAT,
                         "version": _VERSION})

    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record, separators=(",", ":"))
                         + "\n")
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def record_client(self, client_id: int, name: str) -> None:
        self._write({"type": "client", "client_id": client_id,
                     "name": name})

    def record_register(self, profile_id: int, client_id: int,
                        profile: Profile) -> None:
        self._write({"type": "register", "profile_id": profile_id,
                     "client_id": client_id, "name": profile.name,
                     "tintervals": _encode_profile(profile)})

    def record_unregister(self, profile_id: int) -> None:
        self._write({"type": "unregister", "profile_id": profile_id})

    def record_capture(self, profile_id: int, tinterval_id: int,
                       ei_id: int, snapshot: Snapshot) -> None:
        self._write({"type": "capture", "profile_id": profile_id,
                     "tinterval_id": tinterval_id, "ei_id": ei_id,
                     "snapshot": _encode_snapshot(snapshot)})

    def record_complete(self, profile_id: int, tinterval_id: int,
                        completed_at: Chronon,
                        snapshots: tuple[Snapshot, ...]) -> None:
        self._write({"type": "complete", "profile_id": profile_id,
                     "tinterval_id": tinterval_id,
                     "completed_at": completed_at,
                     "snapshots": [_encode_snapshot(s)
                                   for s in snapshots]})

    def record_tick(self, chronon: Chronon) -> None:
        self._write({"type": "tick", "chronon": chronon})

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(slots=True)
class _RegisteredProfile:
    """One journaled registration, in registration order."""

    profile_id: int
    client_id: int
    profile: Profile


@dataclass(slots=True)
class CompletionRecord:
    """One journaled t-interval completion."""

    profile_id: int
    tinterval_id: int
    completed_at: Chronon
    snapshots: tuple[Snapshot, ...]


@dataclass(slots=True)
class JournalState:
    """The fold of a journal: everything recovery needs."""

    clients: list[tuple[int, str]] = field(default_factory=list)
    registrations: list[_RegisteredProfile] = field(default_factory=list)
    unregistered: set[int] = field(default_factory=set)
    captures: dict[tuple[int, int], dict[int, Snapshot]] = \
        field(default_factory=dict)
    completions: dict[tuple[int, int], CompletionRecord] = \
        field(default_factory=dict)
    last_tick: Chronon = 0


def replay_journal(path: str | Path) -> JournalState:
    """Fold a journal file into a :class:`JournalState`.

    A torn final line (crash mid-write) is ignored; corruption anywhere
    else raises :class:`~repro.core.errors.ModelError` — a damaged
    middle means the log cannot be trusted.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    state = JournalState()
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn tail from a mid-write crash
            raise ModelError(
                f"corrupt journal line {index + 1} in {path}") from None
        kind = record.get("type")
        if kind == "header":
            if record.get("format") != _FORMAT:
                raise ModelError(
                    f"not an aio journal: {record.get('format')!r}")
            if record.get("version") != _VERSION:
                raise ModelError(
                    f"unsupported journal version "
                    f"{record.get('version')!r}")
        elif kind == "client":
            state.clients.append((record["client_id"], record["name"]))
        elif kind == "register":
            state.registrations.append(_RegisteredProfile(
                profile_id=record["profile_id"],
                client_id=record["client_id"],
                profile=_decode_profile(record["tintervals"],
                                        record.get("name", ""),
                                        record["profile_id"]),
            ))
        elif kind == "unregister":
            state.unregistered.add(record["profile_id"])
        elif kind == "capture":
            key = (record["profile_id"], record["tinterval_id"])
            state.captures.setdefault(key, {})[record["ei_id"]] = \
                _decode_snapshot(record["snapshot"])
        elif kind == "complete":
            completion = CompletionRecord(
                profile_id=record["profile_id"],
                tinterval_id=record["tinterval_id"],
                completed_at=record["completed_at"],
                snapshots=tuple(_decode_snapshot(s)
                                for s in record["snapshots"]),
            )
            key = (completion.profile_id, completion.tinterval_id)
            state.completions[key] = completion
        elif kind == "tick":
            state.last_tick = record["chronon"]
        else:
            raise ModelError(
                f"unknown journal record type {kind!r} at line "
                f"{index + 1} in {path}")
    return state
