"""Graceful-degradation experiments: GC under unreliable origin servers.

Beyond the paper (whose evaluation assumes every probe succeeds): sweep
the per-probe failure rate of the origin server and measure how each
policy family's gained completeness degrades. Failed probes burn budget
— the paper's ``C_j`` is a request budget — so policies degrade both
because captures are lost outright and because retries/wasted probes
starve other candidates.

Two knobs beyond the failure rate matter and are exposed:

* an in-chronon retry allowance (spends leftover budget on failed
  probes);
* a circuit breaker quarantining persistently dead resources, which is
  what keeps a permanent outage from bleeding the whole budget.

The sweep reuses the harness's :class:`RunOutcome`/:class:`SweepResult`
containers, so the standard reporting/export pipeline renders it. The
fault layer lowers into the columnar batch engine (see
``docs/ALGORITHMS.md`` §14), so degradation sweeps run on the harness's
``DEFAULT_ENGINE`` like every other GC sweep: every (rate, policy)
combination of one repetition becomes a lane of that repetition's
columnar block — the fault seed depends only on the repetition, so all
rates share the block's generated instance — and produces
probe-for-probe the reference simulator's results. ``engine="solo"``
runs the combinations one at a time, each a one-lane block; blocks the
batch engine cannot take fall back to the reference, each lane counted
in ``RunOutcome.fell_back`` / ``SweepResult.fell_back``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.config import ExperimentConfig, baseline
from repro.experiments.harness import (
    DEFAULT_ENGINE,
    RunOutcome,
    SweepResult,
    _run_settings,
    make_instance,
)
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultSpec, Outage
from repro.online.registry import parse_policy_spec
from repro.simulation.batch import FaultLane
from repro.simulation.proxy import run_online

__all__ = [
    "DEFAULT_FAILURE_RATES",
    "FAULT_POLICY_VARIANTS",
    "breaker_ablation",
    "fault_sweep",
    "run_fault_setting",
]

#: The four policy families of the degradation plots, (P) and (NP) each.
FAULT_POLICY_VARIANTS: tuple[str, ...] = (
    "S-EDF(P)", "S-EDF(NP)",
    "MRSF(P)", "MRSF(NP)",
    "M-EDF(P)", "M-EDF(NP)",
    "COVERAGE(P)", "COVERAGE(NP)",
)

DEFAULT_FAILURE_RATES: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

#: The degradation experiments' breaker: a template no run uses — every
#: run takes a clean copy of it (:meth:`FaultLane.fresh`).
_BREAKER = CircuitBreaker(failure_threshold=3, cooldown=4,
                          backoff_factor=2.0, max_cooldown=64)


def _run_fault_cells(config: ExperimentConfig, rates: Sequence[float],
                     policies: Sequence[str],
                     retry: RetryConfig | None, use_breaker: bool,
                     source: str, engine: str,
                     workers: int | None) -> list[RunOutcome]:
    """One RunOutcome per rate, all cells through the harness executor.

    The flat cell list spans every (rate, repetition); under the batch
    engine the cells of one repetition share a generated instance — the
    fault seed folds in only the repetition, so every rate faces the
    same generated world — and advance as the lanes of one columnar
    block, so the whole sweep is ``repetitions`` blocks. A cell's
    breaker is the template :data:`_BREAKER`; every run copies it.
    """
    breaker = _BREAKER if use_breaker else None
    return _run_settings(
        [config] * len(rates), policies, False, source, engine, workers,
        fault_cell=lambda at, repetition: FaultLane(FaultSpec(
            failure_probability=rates[at],
            seed=config.seed + 7919 * repetition), retry, breaker))


def run_fault_setting(config: ExperimentConfig, failure_rate: float,
                      policies: Sequence[str] = FAULT_POLICY_VARIANTS,
                      retry: RetryConfig | None = RetryConfig(1),
                      use_breaker: bool = True,
                      source: str = "poisson",
                      engine: str = DEFAULT_ENGINE,
                      workers: int | None = None) -> RunOutcome:
    """All policies on shared instances, each probe failing with
    ``failure_rate``.

    Every (policy, repetition) run gets a fresh breaker — breaker state
    is per-run — but the fault *seed* is shared per repetition, so all
    policies face the same unreliable world. ``engine="batch"`` (the
    harness default) runs a repetition's policies as the lanes of one
    columnar block; results are identical to ``engine="reference"``.
    """
    return _run_fault_cells(config, (failure_rate,), policies, retry,
                            use_breaker, source, engine, workers)[0]


def fault_sweep(scale: str = "default",
                rates: Sequence[float] = DEFAULT_FAILURE_RATES,
                policies: Sequence[str] = FAULT_POLICY_VARIANTS,
                retry: RetryConfig | None = RetryConfig(1),
                use_breaker: bool = True,
                engine: str = DEFAULT_ENGINE,
                workers: int | None = None,
                config: ExperimentConfig | None = None) -> SweepResult:
    """The graceful-degradation curve: GC vs. per-probe failure rate.

    ``engine`` picks the simulation engine for every (rate, repetition,
    policy) combination — ``"batch"`` (the harness default) advances
    them as lanes of one columnar block per repetition, ``"solo"`` and
    ``"reference"`` run them one at a time; all produce identical
    series. The repetitions' instances are shared among processes,
    one worker per usable CPU (``workers=None``; serial for ``solo``
    and ``reference``, which report runtimes) or ``workers=N`` of them;
    ``workers=1`` is serial. ``config`` overrides the baseline config of
    ``scale`` (benchmarks sweep custom sizes).
    """
    if config is None:
        config = baseline(scale)
    runs = _run_fault_cells(config, rates, policies, retry, use_breaker,
                            "poisson", engine, workers)
    return SweepResult(name="faults", parameter="failure_rate",
                       x_values=tuple(rates), runs=tuple(runs))


def breaker_ablation(scale: str = "smoke",
                     policy: str = "S-EDF(P)",
                     dead_resources: Sequence[int] = (0,),
                     ) -> dict[str, float]:
    """GC with and without the circuit breaker under permanent outages.

    Kills ``dead_resources`` for the whole epoch and runs one policy
    twice on the same instances. Returns ``{"with_breaker": gc,
    "without_breaker": gc}`` — with the breaker the budget wasted on
    dead resources is redirected, so its GC should come out at least as
    high.
    """
    config = baseline(scale)
    outages = tuple(Outage(resource_id, 0, None)
                    for resource_id in dead_resources)
    spec = FaultSpec(outages=outages, seed=config.seed)
    gc_with: list[float] = []
    gc_without: list[float] = []
    for repetition in range(config.repetitions):
        _trace, profiles = make_instance(config, repetition)
        for accumulator, breaker in ((gc_with, _BREAKER),
                                     (gc_without, None)):
            # Fresh policy and breaker per run: both keep per-run state.
            policy_obj, preemptive = parse_policy_spec(policy)
            layer = FaultLane(spec, None, breaker).fresh()
            result = run_online(profiles, config.epoch,
                                config.budget_vector, policy_obj,
                                preemptive=preemptive, faults=layer.faults,
                                breaker=layer.breaker)
            accumulator.append(result.gc)
    return {
        "with_breaker": sum(gc_with) / len(gc_with),
        "without_breaker": sum(gc_without) / len(gc_without),
    }
