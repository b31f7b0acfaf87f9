"""M-EDF — Multi-Interval Earliest Deadline First (multi-EIs level).

The paper's representative of the *multi-EIs level* class: the policy uses
all sibling information of the parent t-interval:

    ``M-EDF(I, T) = sum_{I' in eta} S-EDF(I', T) * (1 - I(I', S))``

— the sum of EDF values of the uncaptured siblings (including ``I``
itself), where a sibling that is not yet active (``T < I'.T_s``) has its
EDF value taken at ``T = 0`` (i.e. its absolute deadline). That sum is
the ``deadlines`` feature of :class:`~repro.online.base.ScoreKey`. A
t-interval with fewer total remaining chronons has less chance to
collide with other t-intervals later, so probing it first loses less.

Proposition 5: on ``P^[1]`` instances M-EDF is equivalent to MRSF (every
uncaptured sibling contributes the same unit of remaining width, so both
scores order candidates identically).
"""

from __future__ import annotations

from repro.online.base import MULTI_EI_LEVEL, Policy, ScoreKey

__all__ = ["MEDFPolicy"]


class MEDFPolicy(Policy):
    """Prefer t-intervals with the least total remaining deadline slack."""

    name = "M-EDF"
    level = MULTI_EI_LEVEL
    key = ScoreKey(deadlines=1)
