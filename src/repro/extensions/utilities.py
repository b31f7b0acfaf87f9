"""Utility-weighted completeness (paper §6, first future-work item).

"As future extension of this work we shall consider more general profile
satisfaction constraints given as client profile utilities. Such utilities
can further help to construct better prioritized policies."

This module implements that extension:

* :class:`UtilityWeights` — per-profile and per-t-interval utilities;
* :func:`weighted_completeness` — utility-weighted GC of a schedule;
* :class:`UtilityWeightedPolicy` — wraps any base policy, scaling its
  score by ``1 / utility`` so high-utility t-intervals are preferred while
  the base ordering is kept within equal-utility groups;
* :func:`run_weighted` — online run returning both plain and weighted GC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.budget import BudgetVector
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule
from repro.core.timeline import Chronon, Epoch
from repro.online.base import Candidate, Policy
from repro.simulation.proxy import run_online
from repro.simulation.result import SimulationResult

__all__ = [
    "UtilityWeights",
    "UtilityWeightedPolicy",
    "run_weighted",
    "weighted_completeness",
]

TKey = tuple[int, int]


class UtilityWeights:
    """Utilities for profiles and t-intervals.

    Resolution order for a t-interval's utility: an explicit per-t-interval
    weight, else the owning profile's weight, else 1.0. Utilities must be
    positive (a zero-utility t-interval should simply not be registered).
    """

    def __init__(self, profile_weights: Mapping[int, float] | None = None,
                 tinterval_weights: Mapping[TKey, float] | None = None
                 ) -> None:
        self._profiles = dict(profile_weights or {})
        self._tintervals = dict(tinterval_weights or {})
        for source in (self._profiles.values(), self._tintervals.values()):
            for weight in source:
                if weight <= 0:
                    raise ValueError(
                        f"utilities must be positive, got {weight}"
                    )

    @classmethod
    def uniform(cls) -> "UtilityWeights":
        """All-ones utilities (weighted GC == plain GC)."""
        return cls()

    def for_profile(self, profile_id: int) -> float:
        """The utility of a whole profile (default 1.0)."""
        return self._profiles.get(profile_id, 1.0)

    def for_tinterval(self, profile_id: int, tinterval_id: int) -> float:
        """The utility of one t-interval (see class docstring)."""
        explicit = self._tintervals.get((profile_id, tinterval_id))
        if explicit is not None:
            return explicit
        return self.for_profile(profile_id)


def weighted_completeness(profiles: ProfileSet, schedule: Schedule,
                          weights: UtilityWeights) -> float:
    """Utility-weighted gained completeness.

    ``sum of utilities of captured t-intervals / sum of all utilities``;
    1.0 for an empty profile set (vacuous objective).
    """
    gained = 0.0
    total = 0.0
    for profile in profiles:
        for eta in profile:
            utility = weights.for_tinterval(eta.profile_id,
                                            eta.tinterval_id)
            total += utility
            if schedule.captures_tinterval(eta):
                gained += utility
    if total == 0.0:
        return 1.0
    return gained / total


class UtilityWeightedPolicy(Policy):
    """Scales a base policy's score by the candidate's utility.

    Scores are lower-is-better; dividing by the utility makes a
    high-utility t-interval beat a low-utility one with the same base
    score, while preserving the base ordering among equal utilities.
    Non-positive base scores are shifted into the positive range first so
    the division cannot flip their order. The base sees what it sees
    alone (its level, every chronon's candidates): unit weights keep its
    schedule.
    """

    def __init__(self, base: Policy, weights: UtilityWeights) -> None:
        self._base = base
        self._weights = weights
        self.name = f"U[{base.name}]"
        self.level = base.level

    def observe_candidates(self, candidates: Sequence[Candidate],
                           chronon: Chronon) -> None:
        self._base.observe_candidates(candidates, chronon)

    def score(self, candidate: Candidate, chronon: Chronon) -> float:
        base_score = self._base.score(candidate, chronon)
        eta = candidate.state.eta
        utility = self._weights.for_tinterval(eta.profile_id,
                                              eta.tinterval_id)
        # Shift into [1, inf) to keep division monotone for scores <= 0.
        return (base_score + 1.0) / utility if base_score >= 0 \
            else base_score * utility


@dataclass(frozen=True, slots=True)
class WeightedRun:
    """Result of a utility-aware online run."""

    result: SimulationResult
    weighted_gc: float


def run_weighted(profiles: ProfileSet, epoch: Epoch, budget: BudgetVector,
                 base_policy: Policy, weights: UtilityWeights,
                 preemptive: bool = True) -> WeightedRun:
    """Run a utility-weighted variant of ``base_policy`` online.

    Returns both the ordinary simulation result (plain GC et al.) and the
    utility-weighted completeness of the produced schedule.
    """
    policy = UtilityWeightedPolicy(base_policy, weights)
    result = run_online(profiles, epoch, budget, policy,
                        preemptive=preemptive)
    weighted = weighted_completeness(profiles, result.schedule, weights)
    return WeightedRun(result=result, weighted_gc=weighted)
