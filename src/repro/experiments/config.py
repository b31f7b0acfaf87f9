"""Experiment configuration (the paper's Table 1).

The provided paper text references Table 1 ("controlled parameters and
baseline parameter settings") without reproducing the table body, so the
baseline below is assembled from the values Section 5 states explicitly:

* ``K = 1000`` chronons (§5.1: "for a given K = 1000 chronons");
* 400 auction resources and ``window = 20`` (§5.2, Figure 3);
* ``rank(P) = 3`` (AuctionWatch(3), §5.2);
* ``C = 1`` ("So far we have used a strict budgetary allocation of
  C = 1", §5.7);
* ``lambda = 20`` for small workloads, 50 for large (§5.4);
* ``alpha = beta = 0`` unless swept (§5.6 sweeps them; §5.1 notes
  ``alpha = 1.37`` matches observed Web-feed popularity);
* 10 repetitions per setting (§5.1).

``m = 500`` profiles is the one inferred value (the paper sweeps
100-2500); DESIGN.md §4 records this substitution.

Three scales are provided: ``paper`` (full Table-1 values), ``default``
(reduced sizes for the benchmark suite) and ``smoke`` (tiny, for tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from repro.core.budget import BudgetVector
from repro.core.timeline import Epoch

__all__ = ["ExperimentConfig", "baseline", "SCALES"]

Scale = Literal["paper", "default", "smoke"]

#: What runs an experiment's online policy runs (``engine=`` of the
#: harness entry points and the CLI's ``--engine``): ``"batch"`` shares
#: columnar blocks, ``"solo"`` gives every run a one-lane block,
#: ``"reference"`` is the executable specification.
ENGINES: tuple[str, ...] = ("batch", "solo", "reference")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One experimental setting (a row of parameter choices).

    Attributes mirror the paper's controlled parameters; see module
    docstring for provenance.
    """

    epoch_length: int = 1000
    num_resources: int = 400
    num_profiles: int = 500
    max_rank: int = 3
    intensity: float = 20.0
    alpha: float = 0.0
    beta: float = 0.0
    budget: int = 1
    window: int | None = 20
    grouping: str = "overlap"
    repetitions: int = 10
    seed: int = 20080407  # ICDE 2008 :-)

    def __post_init__(self) -> None:
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if self.num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        if self.num_profiles < 0:
            raise ValueError("num_profiles must be >= 0")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.intensity < 0:
            raise ValueError("intensity must be >= 0")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def epoch(self) -> Epoch:
        """The epoch object for this configuration."""
        return Epoch(self.epoch_length)

    @property
    def budget_vector(self) -> BudgetVector:
        """Constant per-chronon budget vector."""
        return BudgetVector(self.budget)

    def with_(self, **changes) -> "ExperimentConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> list[tuple[str, str]]:
        """(parameter, value) pairs for Table-1-style reporting."""
        window = "overwrite" if self.window is None else str(self.window)
        return [
            ("epoch length K", str(self.epoch_length)),
            ("resources n", str(self.num_resources)),
            ("profiles m", str(self.num_profiles)),
            ("rank(P) k", str(self.max_rank)),
            ("update intensity lambda", f"{self.intensity:g}"),
            ("inter-user pref alpha", f"{self.alpha:g}"),
            ("intra-user pref beta", f"{self.beta:g}"),
            ("budget C", str(self.budget)),
            ("window W", window),
            ("grouping", self.grouping),
            ("repetitions", str(self.repetitions)),
            ("seed", str(self.seed)),
        ]


#: Per-scale baseline configurations. "paper" matches Table 1 (with the one
#: inferred value m = 500); the smaller scales shrink every axis while
#: preserving the regime (budget scarcity, overlap rates).
SCALES: dict[Scale, ExperimentConfig] = {
    "paper": ExperimentConfig(),
    "default": ExperimentConfig(
        epoch_length=400,
        num_resources=160,
        num_profiles=200,
        intensity=12.0,
        repetitions=3,
    ),
    "smoke": ExperimentConfig(
        epoch_length=80,
        num_resources=16,
        num_profiles=40,
        intensity=12.0,
        window=6,
        repetitions=2,
    ),
}


def baseline(scale: Scale = "default") -> ExperimentConfig:
    """The baseline configuration at a given scale."""
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None
