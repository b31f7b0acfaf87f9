"""S-EDF — Single-interval Earliest Deadline First (EI level).

The paper's representative of the *EI level* class: the policy looks at one
execution interval at a time and prefers the one whose deadline is nearest:

    ``S-EDF(I, T) = I.T_f - T``   (remaining chronons to the deadline)

EDF is optimal for the degenerate case of individual execution intervals
(rank-1 profiles) and serves as the baseline the richer policies are
compared against (§4.2.2, Proposition 3 territory).
"""

from __future__ import annotations

from repro.online.base import EI_LEVEL, Policy, ScoreKey

__all__ = ["SEDFPolicy"]


class SEDFPolicy(Policy):
    """Earliest-deadline-first over individual execution intervals."""

    name = "S-EDF"
    level = EI_LEVEL
    key = ScoreKey(finish=1, chronon=-1)
