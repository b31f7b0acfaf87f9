"""Offline solver comparison: Local-Ratio versus the greedy baseline.

The paper's offline contribution (§4.1) is evaluated in the ``P^[1]``
regime with a strict budget (``W = 0``, ``C = 1`` — §5.3/§5.7): this
experiment sweeps the profile count at a chosen scale and reports the
gained completeness and solver runtime of the Local-Ratio approximation
next to the greedy baseline that shares its feasibility machinery — an
ablation isolating the value of the weight decomposition.

Like the online sweeps (``harness.sweep``), the experiment accepts
``workers=N`` to farm (setting, repetition) cells out to a process pool;
instances are regenerated in workers from per-cell seeds and merged in
the serial iteration order, so gained-completeness output is identical to
a serial run.
"""

from __future__ import annotations

from repro.experiments.config import baseline
from repro.experiments.harness import (
    SweepResult,
    _merge_cells,
    _pool_map,
    make_instance,
)
from repro.offline.greedy import GreedyOfflineSolver
from repro.offline.local_ratio import LocalRatioApproximation

__all__ = ["OFFLINE_SOLVER_LABELS", "offline_comparison"]

#: Solver line-up of the comparison, in presentation order.
OFFLINE_SOLVER_LABELS: tuple[str, ...] = ("local-ratio", "greedy")


def _offline_cell(config, repetition: int,
                  source: str) -> dict[str, tuple[float, float]]:
    """One (setting, repetition) cell: both solvers on one instance.

    Module-level (so picklable) and fully determined by its arguments —
    the parallel path regenerates the instance from the seeded config.
    """
    _trace, profiles = make_instance(config, repetition, source=source)
    epoch, budget = config.epoch, config.budget_vector
    local_ratio = LocalRatioApproximation().solve(profiles, epoch, budget)
    greedy = GreedyOfflineSolver().solve(profiles, epoch, budget)
    return {
        "local-ratio": (local_ratio.gc, local_ratio.runtime_seconds),
        "greedy": (greedy.gc, greedy.runtime_seconds),
    }


def offline_comparison(scale: str = "default", *,
                       workers: int | None = None,
                       source: str = "poisson") -> SweepResult:
    """Sweep profile count; compare offline solvers on shared instances.

    Parameters
    ----------
    scale:
        Experiment scale ("paper", "default" or "smoke"); the sweep runs
        at 1/4, 1/2 and 1x the scale's baseline profile count.
    workers:
        Process-pool width; ``None`` or 1 runs serially. Results are
        identical either way.
    source:
        Trace source passed through to instance generation.
    """
    base = baseline(scale).with_(window=0, grouping="indexed", budget=1)
    values = sorted({max(1, base.num_profiles // 4),
                     max(1, base.num_profiles // 2),
                     base.num_profiles})
    configs = [base.with_(num_profiles=value) for value in values]
    cells = iter(_pool_map(
        _offline_cell,
        [(config, repetition, source) for config in configs
         for repetition in range(config.repetitions)], workers))
    runs = tuple(
        _merge_cells(config,
                     [next(cells) for _ in range(config.repetitions)],
                     OFFLINE_SOLVER_LABELS, False, "")
        for config in configs)
    return SweepResult(name=f"offline-comparison-{scale}",
                       parameter="num_profiles",
                       x_values=tuple(values), runs=runs)
