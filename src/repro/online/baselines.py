"""Baseline online policies (not from the paper; sanity anchors).

These give the experiment harness cheap lower/upper sanity bounds:

* :class:`RandomPolicy` — uniformly random priorities (``noise``);
* :class:`FCFSPolicy` — first-come-first-served on EI start chronons;
* :class:`LeastFlexibleFirstPolicy` — prefer EIs with the fewest
  chronons left in their window; every candidate is active, so this is
  S-EDF's score plus one and ranks exactly as S-EDF does (kept as the
  ablation lineups' named baseline);
* :class:`CoveragePolicy` — prefer resources whose probe would capture the
  most candidate EIs right now (greedy set-cover flavor; exploits
  intra-resource overlap explicitly).

The paper's claims are about S-EDF / MRSF / M-EDF; these baselines exist to
show the proposed heuristics beat naive strategies, and they are used in
the ablation benchmarks.
"""

from __future__ import annotations

from repro.online.base import (
    EI_LEVEL,
    MULTI_EI_LEVEL,
    RANK_LEVEL,
    Policy,
    ScoreKey,
)

__all__ = [
    "RandomPolicy",
    "FCFSPolicy",
    "LeastFlexibleFirstPolicy",
    "CoveragePolicy",
    "StaticRankPolicy",
    "MostResidualFirstPolicy",
]


class RandomPolicy(Policy):
    """Uniformly random priorities: each EI's own draw,
    :func:`~repro.online.base.noise` of its identity, the same at every
    chronon and on every engine."""

    name = "Random"
    level = EI_LEVEL
    key = ScoreKey(noise=1)


class FCFSPolicy(Policy):
    """First come, first served: earlier-starting EIs first."""

    name = "FCFS"
    level = EI_LEVEL
    key = ScoreKey(start=1)


class LeastFlexibleFirstPolicy(Policy):
    """Prefer EIs with the fewest remaining chances to be captured.

    Scores the number of chronons left in the EI's window,
    ``T_f - max(T, T_s) + 1``. A candidate is active (``T_s <= T``), so
    that is ``T_f - T + 1``: S-EDF's score plus one, and the same ranking.
    """

    name = "LFF"
    level = EI_LEVEL
    key = ScoreKey(finish=1, chronon=-1, const=1)


class StaticRankPolicy(Policy):
    """Rank-level policy that ignores capture progress.

    Scores by the *static* profile rank (simpler profiles first) without
    tracking how many sibling EIs are already captured. The gap between
    this and MRSF isolates the value of residual-awareness — the part of
    MRSF that actually reacts to the run.
    """

    name = "StaticRank"
    level = RANK_LEVEL
    key = ScoreKey(rank=1)


class MostResidualFirstPolicy(Policy):
    """Anti-MRSF: prefer t-intervals with the MOST EIs left.

    The pedagogical lower bound for the rank level — it spreads budget
    across barely-started t-intervals and should complete few of them.
    """

    name = "anti-MRSF"
    level = RANK_LEVEL
    key = ScoreKey(rank=-1, captured=1)


class CoveragePolicy(Policy):
    """Prefer resources that capture many candidate EIs in one probe.

    Scores minus the number of candidates on the EI's resource this
    chronon (the row's ``pool`` feature, counted by
    :meth:`~repro.online.base.Policy.observe_candidates`).
    """

    name = "Coverage"
    level = MULTI_EI_LEVEL
    key = ScoreKey(pool=-1)
