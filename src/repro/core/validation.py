"""Instance validation: catch unsatisfiable inputs before running.

The model accepts many inputs that can never contribute completeness — an
EI entirely outside the epoch, a unit-width t-interval needing more
simultaneous probes than the budget allows, an empty profile diluting
nothing but signaling a workload bug. :func:`validate_instance` collects
such findings as structured diagnostics (never raising), so callers can
warn, fail, or filter as policy dictates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.core.budget import BudgetVector
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch

__all__ = ["Diagnostic", "ValidationReport", "validate_instance"]

Severity = Literal["error", "warning"]


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One validation finding.

    ``error`` findings mean the flagged t-interval can never be captured;
    ``warning`` findings are suspicious but harmless.
    """

    severity: Severity
    code: str
    message: str
    profile_id: int = -1
    tinterval_id: int = -1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = ""
        if self.profile_id >= 0:
            where = f" [profile {self.profile_id}"
            if self.tinterval_id >= 0:
                where += f", t-interval {self.tinterval_id}"
            where += "]"
        return f"{self.severity}: {self.code}: {self.message}{where}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """All findings for one instance."""

    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings allowed)."""
        return not any(d.severity == "error" for d in self.diagnostics)

    def errors(self) -> list[Diagnostic]:
        """Findings that make a t-interval uncapturable."""
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> list[Diagnostic]:
        """Suspicious-but-harmless findings."""
        return [d for d in self.diagnostics if d.severity == "warning"]

    def uncapturable_keys(self) -> set[tuple[int, int]]:
        """Keys of t-intervals flagged as never capturable."""
        return {(d.profile_id, d.tinterval_id)
                for d in self.diagnostics
                if d.severity == "error" and d.tinterval_id >= 0}


def validate_instance(profiles: ProfileSet, epoch: Epoch,
                      budget: BudgetVector) -> ValidationReport:
    """Check a monitoring instance for unsatisfiable or suspicious parts.

    Findings (codes):

    * ``ei-outside-epoch`` (error) — an EI's window lies entirely past
      the epoch end; its t-interval can never complete.
    * ``simultaneous-demand`` (error) — a unit-width t-interval needs
      more distinct resources at one chronon than that chronon's budget.
    * ``zero-budget-window`` (error) — every chronon of some EI's window
      has budget 0.

    EI findings are errors only when they leave a t-interval fewer EIs
    than its ``need``; ``simultaneous-demand`` is checked where every
    EI is needed.
    * ``empty-profile`` (warning) — a profile with no t-intervals.
    * ``duplicate-tinterval`` (warning) — two identical t-intervals in
      one profile (each still counts toward GC; usually a generator bug).
    """
    diagnostics: list[Diagnostic] = []
    for profile in profiles:
        if len(profile) == 0:
            diagnostics.append(Diagnostic(
                "warning", "empty-profile",
                f"profile {profile.name!r} has no t-intervals",
                profile_id=profile.profile_id))
            continue

        seen: dict[tuple, int] = {}
        for eta in profile:
            signature = tuple(sorted(
                (ei.resource_id, ei.start, ei.finish) for ei in eta))
            if signature in seen:
                diagnostics.append(Diagnostic(
                    "warning", "duplicate-tinterval",
                    f"identical to t-interval {seen[signature]}",
                    profile_id=profile.profile_id,
                    tinterval_id=eta.tinterval_id))
            else:
                seen[signature] = eta.tinterval_id

            # EIs that can never be captured: fatal beyond size - need.
            lost: list[tuple[str, str]] = []
            for ei in eta:
                if ei.start > epoch.last:
                    lost.append((
                        "ei-outside-epoch",
                        f"EI on resource {ei.resource_id} starts at "
                        f"{ei.start}, past the epoch end {epoch.last}"))
                elif all(budget.at(chronon) == 0 for chronon in
                         range(max(1, ei.start),
                               min(epoch.last, ei.finish) + 1)):
                    lost.append((
                        "zero-budget-window",
                        f"EI on resource {ei.resource_id} window "
                        f"[{ei.start},{ei.finish}] has no budget"))
            if len(lost) > eta.size - eta.need:
                diagnostics.append(Diagnostic(
                    "error", *lost[0], profile_id=profile.profile_id,
                    tinterval_id=eta.tinterval_id))
            elif eta.is_unit_width and eta.need == eta.size:
                demands: dict[int, set[int]] = {}
                for ei in eta:
                    demands.setdefault(ei.start, set()).add(ei.resource_id)
                for chronon, resources in demands.items():
                    if len(resources) > budget.at(chronon):
                        diagnostics.append(Diagnostic(
                            "error", "simultaneous-demand",
                            f"needs {len(resources)} probes at "
                            f"chronon {chronon}, budget "
                            f"{budget.at(chronon)}",
                            profile_id=profile.profile_id,
                            tinterval_id=eta.tinterval_id))
                        break
    return ValidationReport(diagnostics=tuple(diagnostics))
