"""MRSF — Minimal Residual Stub First (rank level).

The paper's representative of the *rank level* class: the policy prefers
EIs whose parent t-interval has the fewest EIs left to capture:

    ``MRSF(I) = rank(p) - sum_{I' in eta} I(I', S)``

i.e. the profile's rank minus the number of already-captured siblings.
Intuition: a t-interval with fewer remaining stubs has a higher probability
of completing, so the budget spent on it is less likely to be wasted.

Proposition 4: without intra-resource overlap and with ``rank(P) = k``,
MRSF is k-competitive.

Q-MRSF counts to the t-interval's ``need`` instead of the profile's
rank: ``need(eta) - sum I(I', S)``, the captures still missing.
"""

from __future__ import annotations

from repro.online.base import RANK_LEVEL, Policy, ScoreKey

__all__ = ["MRSFPolicy", "QuotaMRSFPolicy"]


class MRSFPolicy(Policy):
    """Prefer EIs of t-intervals closest to completion."""

    name = "MRSF"
    level = RANK_LEVEL
    key = ScoreKey(rank=1, captured=-1)


class QuotaMRSFPolicy(Policy):
    """Prefer EIs of t-intervals fewest captures short of their need."""

    name = "Q-MRSF"
    level = RANK_LEVEL
    key = ScoreKey(need=1, captured=-1)
