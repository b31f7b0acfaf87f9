"""Per-figure experiment definitions (one function per table/figure).

Every public function reproduces one element of the paper's evaluation
(Section 5) and returns structured results; the benchmark files under
``benchmarks/`` and the CLI print them with
:mod:`repro.experiments.reporting`.

The sweeps honor three scales (see :mod:`repro.experiments.config`):
``paper`` runs the full Table-1 sizes, ``default`` shrinks every axis for
the benchmark suite, ``smoke`` is for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig, Scale, baseline
from repro.experiments.harness import (
    DEFAULT_ENGINE,
    OFFLINE_LABEL,
    RunOutcome,
    SweepResult,
    run_setting,
    sweep,
)

__all__ = [
    "ALL_POLICY_VARIANTS",
    "FigurePair",
    "table1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
]

#: All six policy variants compared in Figure 3.
ALL_POLICY_VARIANTS: tuple[str, ...] = (
    "S-EDF(NP)", "S-EDF(P)", "MRSF(NP)", "MRSF(P)", "M-EDF(NP)", "M-EDF(P)",
)


@dataclass(frozen=True, slots=True)
class FigurePair:
    """A two-panel figure (the paper's Figures 5, 6, 7)."""

    left: SweepResult
    right: SweepResult


def _values(scale: Scale, paper_values: list, default_values: list,
            smoke_values: list) -> list:
    if scale == "paper":
        return paper_values
    if scale == "default":
        return default_values
    return smoke_values


def table1(scale: Scale = "default", *,
           workers: int | None = None,
           # the table's runtime column needs one timed run per policy
           engine: str = "solo") -> RunOutcome:
    """Table 1 companion: all main policies at the baseline setting."""
    config = baseline(scale)
    return run_setting(config, policies=list(ALL_POLICY_VARIANTS),
                       workers=workers, engine=engine)


def figure3(scale: Scale = "default", *,
           workers: int | None = None,
           # the table's runtime column needs one timed run per policy
           engine: str = "solo") -> RunOutcome:
    """Figure 3: real-world(-like) auction trace, P vs NP comparison.

    Paper setting: AuctionWatch(3) profiles, 400 auctions, window W = 20,
    budget C = 2, eBay bid trace (substituted by the auction synthesizer).
    Expected shape: MRSF(P) and M-EDF(P) beat S-EDF; preemption helps the
    rank/multi-EI policies (up to ~20% gap).

    The auction population is kept at the paper's 400 resources / 500
    profiles even at the default scale — the resource:profile ratio sets
    the cross-profile sharing level the policy ordering depends on — and
    only the epoch and bid counts shrink.
    """
    config = baseline(scale).with_(
        budget=2, window=20, num_resources=400, num_profiles=500,
        repetitions=min(3, baseline(scale).repetitions))
    if scale == "smoke":
        config = config.with_(num_resources=40, num_profiles=50)
    return run_setting(config, policies=list(ALL_POLICY_VARIANTS),
                       source="auction", workers=workers, engine=engine)


def figure4(scale: Scale = "default", *,
           workers: int | None = None,
           engine: str = DEFAULT_ENGINE) -> SweepResult:
    """Figure 4: online policies vs offline approximation over rank(P).

    Paper setting: W = 0 and C = 1, producing ``P^[1]`` profiles — the
    regime where the Local-Ratio approximation has its best guarantee, and
    where M-EDF coincides with MRSF (Proposition 5), so only MRSF(P) is
    reported. Expected shape: GC decreases with rank; MRSF(P) beats the
    offline approximation (paper: by 11-23%); S-EDF(NP) drops below the
    offline approximation for rank > 2.
    """
    # W = 0 degenerates overlap grouping (unit EIs only overlap when they
    # coincide), so the P^[1] experiments use the indexed grouping.
    config = baseline(scale).with_(window=0, budget=1, grouping="indexed")
    ranks = _values(scale, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3])
    return sweep("Figure 4", config, "max_rank", ranks,
                 policies=["S-EDF(NP)", "MRSF(P)"],
                 include_offline=True, workers=workers, engine=engine)


def figure5(scale: Scale = "default", *,
           workers: int | None = None,
           # the runtime series needs one timed run per policy
           engine: str = "solo") -> FigurePair:
    """Figure 5: runtime scalability.

    Panel 1: offline approximation vs online policies on small workloads
    (paper: lambda = 20, m in 100..500). Panel 2: online policies only on
    2.5x update intensity and up to 2500 profiles. Expected shape: the
    offline approximation's runtime dwarfs the online policies'; online
    runtime grows ~linearly in the number of profiles.

    Both panels use W = 0 / C = 1 instances (the regime the offline
    approximation is defined on, cf. Figure 4).
    """
    config = baseline(scale).with_(
        window=0, budget=1, grouping="indexed",
        repetitions=min(2, baseline(scale).repetitions))
    small_m = _values(scale,
                      [100, 200, 300, 400, 500],
                      [200, 400, 600, 800, 1000],
                      [4, 8, 12])
    left = sweep("Figure 5(1)", config, "num_profiles", small_m,
                 policies=["S-EDF(NP)", "S-EDF(P)", "MRSF(P)", "M-EDF(P)"],
                 include_offline=True, workers=workers, engine=engine)

    big_config = config.with_(intensity=config.intensity * 2.5)
    big_m = _values(scale,
                    [500, 1000, 1500, 2000, 2500],
                    [100, 200, 300, 400, 500],
                    [8, 16, 24])
    right = sweep("Figure 5(2)", big_config, "num_profiles", big_m,
                  policies=["S-EDF(NP)", "S-EDF(P)", "MRSF(P)",
                            "M-EDF(P)"], workers=workers, engine=engine)
    return FigurePair(left=left, right=right)


def figure6(scale: Scale = "default", *,
           workers: int | None = None,
           engine: str = DEFAULT_ENGINE) -> FigurePair:
    """Figure 6: workload analysis.

    Panel 1 sweeps the average update intensity lambda; panel 2 sweeps the
    number of profiles m. Expected shape: GC decreases in both (more
    t-intervals compete for the same budget); MRSF(P) >= M-EDF(P) >
    S-EDF(*).
    """
    config = baseline(scale)
    lambdas = _values(scale,
                      [10, 20, 30, 40, 50],
                      [6, 12, 18, 24, 30],
                      [3, 6, 9])
    left = sweep("Figure 6(1)", config, "intensity", lambdas,
                 workers=workers, engine=engine)
    profile_counts = _values(scale,
                             [100, 300, 500, 700, 900],
                             [40, 80, 120, 160, 200],
                             [4, 8, 12])
    right = sweep("Figure 6(2)", config, "num_profiles",
                  profile_counts, workers=workers, engine=engine)
    return FigurePair(left=left, right=right)


def figure7(scale: Scale = "default", *,
           workers: int | None = None,
           engine: str = DEFAULT_ENGINE) -> FigurePair:
    """Figure 7: impact of user preferences.

    Panel 1 sweeps alpha (inter-user preference — popularity skew of the
    resource choice; 1.37 is the Web-feed value the paper cites); panel 2
    sweeps beta (intra-user preference — skew toward simpler profiles).
    Expected shape: GC increases in alpha (intra-resource overlap on
    popular resources is exploitable; S-EDF(NP) > S-EDF(P) here) and
    increases in beta (simpler profiles).
    """
    config = baseline(scale)
    alphas = _values(scale,
                     [0.0, 0.5, 1.0, 1.37, 2.0],
                     [0.0, 0.5, 1.0, 1.37, 2.0],
                     [0.0, 1.0, 2.0])
    left = sweep("Figure 7(1)", config, "alpha", alphas,
                 workers=workers, engine=engine)
    betas = _values(scale,
                    [0.0, 0.5, 1.0, 1.5, 2.0],
                    [0.0, 0.5, 1.0, 1.5, 2.0],
                    [0.0, 1.0, 2.0])
    right = sweep("Figure 7(2)", config, "beta", betas,
                  workers=workers, engine=engine)
    return FigurePair(left=left, right=right)


def figure8(scale: Scale = "default", *,
           workers: int | None = None,
           engine: str = DEFAULT_ENGINE) -> SweepResult:
    """Figure 8: effect of budgetary limitations.

    Sweeps the per-chronon budget C. Expected shape: GC increases markedly
    with budget; MRSF(P) utilizes extra budget best; S-EDF(P) improves
    ~linearly while S-EDF(NP) is sub-linear.

    The update intensity is doubled relative to the baseline so that the
    workload stays budget-bound across the whole sweep (at baseline
    intensity the reduced-scale instances saturate at C >= 4, flattening
    every curve into 1.0).
    """
    config = baseline(scale)
    config = config.with_(intensity=config.intensity * 2)
    budgets = _values(scale, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3])
    return sweep("Figure 8", config, "budget", budgets,
                 workers=workers, engine=engine)
