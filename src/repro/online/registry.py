"""Name-based policy registry.

The experiment harness and CLI refer to policies by the paper's names
("S-EDF", "MRSF", "M-EDF", optionally with a "(P)"/"(NP)" suffix).
"""

from __future__ import annotations

from repro.core.errors import WorkloadError
from repro.online.base import Policy, ScoreKey
from repro.online.baselines import (
    CoveragePolicy,
    FCFSPolicy,
    LeastFlexibleFirstPolicy,
    MostResidualFirstPolicy,
    RandomPolicy,
    StaticRankPolicy,
)
from repro.online.medf import MEDFPolicy
from repro.online.mrsf import MRSFPolicy, QuotaMRSFPolicy
from repro.online.sedf import SEDFPolicy

__all__ = ["make_policy", "parse_policy_spec", "available_policies",
           "registered_keys"]

_FACTORIES: dict[str, type[Policy]] = {
    "S-EDF": SEDFPolicy,
    "MRSF": MRSFPolicy,
    "Q-MRSF": QuotaMRSFPolicy,
    "M-EDF": MEDFPolicy,
    "RANDOM": RandomPolicy,
    "FCFS": FCFSPolicy,
    "LFF": LeastFlexibleFirstPolicy,
    "COVERAGE": CoveragePolicy,
    "STATICRANK": StaticRankPolicy,
    "ANTI-MRSF": MostResidualFirstPolicy,
}


def available_policies() -> list[str]:
    """Canonical policy names accepted by :func:`make_policy`."""
    return sorted(_FACTORIES)


def registered_keys() -> list[ScoreKey]:
    """The score rows of the registered policies that have one."""
    return [factory.key for factory in _FACTORIES.values()
            if factory.key is not None]


def make_policy(name: str) -> Policy:
    """Instantiate a policy by canonical name (case-insensitive).

    Raises
    ------
    WorkloadError
        For unknown policy names.
    """
    factory = _FACTORIES.get(name.upper().replace("SEDF", "S-EDF")
                             .replace("MEDF", "M-EDF"))
    if factory is None:
        raise WorkloadError(
            f"unknown policy {name!r}; available: {available_policies()}"
        )
    return factory()


def parse_policy_spec(spec: str) -> tuple[Policy, bool]:
    """Parse a display spec like ``"MRSF(P)"`` into (policy, preemptive).

    Name and suffix are case-insensitive (``"mrsf(np)"`` works); any
    other suffix is a :class:`WorkloadError`. A bare name (no suffix)
    defaults to preemptive, matching the dominant configuration in the
    paper's plots.
    """
    name, paren, mode = spec.strip().partition("(")
    mode = mode.upper()
    if paren and mode not in ("P)", "NP)"):
        raise WorkloadError(f"unknown mode in policy spec {spec!r}: "
                            "expected a (P) or (NP) suffix")
    return make_policy(name.strip()), mode != "NP)"
