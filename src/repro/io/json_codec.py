"""JSON serialization for model objects.

Profiles, schedules, budgets, and simulation results round-trip through
plain-JSON structures with a versioned envelope, so experiment artifacts
can be stored, diffed, and reloaded across sessions::

    save_profiles(profiles, "profiles.json")
    profiles = load_profiles("profiles.json")

Envelope format: ``{"format": "repro/<kind>", "version": 1, "data": ...}``.
Unknown formats/versions raise :class:`~repro.core.errors.ModelError`
rather than guessing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.budget import BudgetVector
from repro.core.completeness import CompletenessReport
from repro.core.errors import ModelError
from repro.core.intervals import TInterval
from repro.core.profile import Profile, ProfileSet
from repro.core.schedule import Schedule
from repro.simulation.result import SimulationResult

__all__ = [
    "profiles_to_jsonable",
    "profiles_from_jsonable",
    "schedule_to_jsonable",
    "schedule_from_jsonable",
    "budget_to_jsonable",
    "budget_from_jsonable",
    "result_to_jsonable",
    "result_from_jsonable",
    "save_profiles",
    "load_profiles",
    "save_result",
    "load_result",
]

_VERSION = 1


def _envelope(kind: str, data) -> dict:
    return {"format": f"repro/{kind}", "version": _VERSION, "data": data}


def _open_envelope(obj, kind: str):
    if not isinstance(obj, dict):
        raise ModelError(f"expected a repro/{kind} envelope, got "
                         f"{type(obj).__name__}")
    if obj.get("format") != f"repro/{kind}":
        raise ModelError(
            f"expected format repro/{kind}, got {obj.get('format')!r}")
    if obj.get("version") != _VERSION:
        raise ModelError(
            f"unsupported {kind} version {obj.get('version')!r}")
    return obj["data"]


# ---------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------

def profiles_to_jsonable(profiles: ProfileSet) -> dict:
    """Profile set -> JSON-ready dict (identities are positional)."""
    data = [
        {
            "name": profile.name,
            "tintervals": [eta.record() for eta in profile],
        }
        for profile in profiles
    ]
    return _envelope("profiles", data)


def profiles_from_jsonable(obj) -> ProfileSet:
    """Inverse of :func:`profiles_to_jsonable`."""
    data = _open_envelope(obj, "profiles")
    profiles = []
    for profile_id, entry in enumerate(data):
        tintervals = [
            TInterval.from_record(
                record, f"profile {profile_id} t-interval {index}")
            for index, record in enumerate(entry["tintervals"])
        ]
        profiles.append(Profile(tintervals, name=entry.get("name", "")))
    return ProfileSet(profiles)


# ---------------------------------------------------------------------
# Schedules / budgets
# ---------------------------------------------------------------------

def schedule_to_jsonable(schedule: Schedule) -> dict:
    """Schedule -> JSON-ready dict (sorted probe list)."""
    return _envelope("schedule",
                     [[resource, chronon]
                      for resource, chronon in schedule.probes()])


def schedule_from_jsonable(obj) -> Schedule:
    """Inverse of :func:`schedule_to_jsonable`."""
    data = _open_envelope(obj, "schedule")
    return Schedule((resource, chronon) for resource, chronon in data)


def budget_to_jsonable(budget: BudgetVector) -> dict:
    """Budget vector -> JSON-ready dict."""
    data = {"default": budget.default,
            "overrides": {str(chronon): value
                          for chronon, value in
                          budget.overrides().items()}}
    return _envelope("budget", data)


def budget_from_jsonable(obj) -> BudgetVector:
    """Inverse of :func:`budget_to_jsonable`."""
    data = _open_envelope(obj, "budget")
    overrides = {int(chronon): value
                 for chronon, value in data.get("overrides", {}).items()}
    return BudgetVector(data["default"], overrides or None)


# ---------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------

def result_to_jsonable(result: SimulationResult) -> dict:
    """Simulation result -> JSON-ready dict (full round-trip)."""
    report = result.report
    data = {
        "label": result.label,
        "schedule": schedule_to_jsonable(result.schedule),
        "report": {
            "captured": report.captured,
            "total": report.total,
            "per_profile": {str(pid): list(pair)
                            for pid, pair in report.per_profile.items()},
            "per_rank": {str(rank): list(pair)
                         for rank, pair in report.per_rank.items()},
        },
        "probes_used": result.probes_used,
        "expired": result.expired,
        "runtime_seconds": result.runtime_seconds,
        "extras": dict(result.extras),
    }
    return _envelope("result", data)


def result_from_jsonable(obj) -> SimulationResult:
    """Inverse of :func:`result_to_jsonable`."""
    data = _open_envelope(obj, "result")
    report_data = data["report"]
    report = CompletenessReport(
        captured=report_data["captured"],
        total=report_data["total"],
        per_profile={int(pid): tuple(pair)
                     for pid, pair in
                     report_data.get("per_profile", {}).items()},
        per_rank={int(rank): tuple(pair)
                  for rank, pair in
                  report_data.get("per_rank", {}).items()},
    )
    return SimulationResult(
        label=data["label"],
        schedule=schedule_from_jsonable(data["schedule"]),
        report=report,
        probes_used=data["probes_used"],
        expired=data.get("expired", 0),
        runtime_seconds=data.get("runtime_seconds", 0.0),
        extras=data.get("extras", {}),
    )


# ---------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------

def save_profiles(profiles: ProfileSet, path: str | Path) -> None:
    """Write a profile set as JSON."""
    Path(path).write_text(json.dumps(profiles_to_jsonable(profiles),
                                     indent=2) + "\n")


def load_profiles(path: str | Path) -> ProfileSet:
    """Read a profile set written by :func:`save_profiles`."""
    return profiles_from_jsonable(json.loads(Path(path).read_text()))


def save_result(result: SimulationResult, path: str | Path) -> None:
    """Write a simulation result as JSON."""
    Path(path).write_text(json.dumps(result_to_jsonable(result),
                                     indent=2) + "\n")


def load_result(path: str | Path) -> SimulationResult:
    """Read a simulation result written by :func:`save_result`."""
    return result_from_jsonable(json.loads(Path(path).read_text()))
