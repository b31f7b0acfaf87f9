"""Gained completeness — the paper's objective function.

``GC(P, T, S) = sum_p sum_eta I(eta, S)  /  sum_p |p|``  (Section 3.3)

Besides the scalar GC we expose a :class:`CompletenessReport` with
per-profile and per-rank breakdowns, which the experiment harness uses to
report the same series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core.intervals import TInterval
from repro.core.profile import Profile, ProfileSet
from repro.core.schedule import Schedule

__all__ = ["CompletenessReport", "gained_completeness", "evaluate_schedule",
           "tally"]


@dataclass(frozen=True, slots=True)
class CompletenessReport:
    """Detailed capture accounting for a schedule over a profile set.

    Attributes
    ----------
    captured:
        Number of captured t-intervals (the GC numerator).
    total:
        Total number of t-intervals (the GC denominator).
    per_profile:
        ``profile_id -> (captured, total)`` pairs.
    per_rank:
        ``t-interval size -> (captured, total)`` pairs; useful for rank
        sweeps (Figure 4). A block-kernel report holds both breakdowns
        as read-only mappings, counted on first read.
    """

    captured: int
    total: int
    per_profile: Mapping[int, tuple[int, int]] = field(default_factory=dict)
    per_rank: Mapping[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def gc(self) -> float:
        """Gained completeness in ``[0, 1]``; 1.0 for an empty profile set.

        An empty set imposes no requirement, so we follow the convention
        that a vacuous objective is fully met.
        """
        if self.total == 0:
            return 1.0
        return self.captured / self.total

    def profile_gc(self, profile_id: int) -> float:
        """Gained completeness restricted to one profile."""
        captured, total = self.per_profile.get(profile_id, (0, 0))
        if total == 0:
            return 1.0
        return captured / total


def gained_completeness(profiles: ProfileSet, schedule: Schedule) -> float:
    """Compute the scalar GC of a schedule (Section 3.3 definition)."""
    return evaluate_schedule(profiles, schedule).gc


def evaluate_schedule(profiles: ProfileSet,
                      schedule: Schedule) -> CompletenessReport:
    """Full capture accounting of ``schedule`` against ``profiles``."""
    return tally(profiles, schedule.captures_tinterval)


def tally(profiles: Iterable[Profile],
          captured: Callable[[TInterval], bool]) -> CompletenessReport:
    """The report of ``profiles`` given which t-intervals count as
    captured: by a schedule, in a solver's accepted set, completed in a
    simulated run."""
    captured_total = 0
    total = 0
    per_profile: dict[int, tuple[int, int]] = {}
    per_rank: dict[int, tuple[int, int]] = {}
    for profile in profiles:
        profile_captured = 0
        for eta in profile:
            total += 1
            hit = captured(eta)
            if hit:
                captured_total += 1
                profile_captured += 1
            rank_captured, rank_total = per_rank.get(eta.size, (0, 0))
            per_rank[eta.size] = (rank_captured + int(hit), rank_total + 1)
        per_profile[profile.profile_id] = (profile_captured, len(profile))
    return CompletenessReport(captured=captured_total, total=total,
                              per_profile=per_profile, per_rank=per_rank)
