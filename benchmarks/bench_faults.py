"""Graceful-degradation bench: GC vs. origin-server failure rate.

Beyond the paper (whose probes always succeed): every policy family's
gained completeness must degrade *gracefully* — monotonically-ish in the
failure rate, no crashes, no cliff — and the circuit breaker must pay
for itself under a permanent single-resource outage by redirecting the
budget that would be burned on the dead resource.

The degradation bench times the user's path: ``fault_sweep`` pools its
repetitions' instances over the usable CPUs.
"""

from __future__ import annotations

from repro.experiments import breaker_ablation, fault_sweep
from repro.experiments.reporting import tables

from benchmarks.conftest import print_block

FAULT_RATES = (0.0, 0.25, 0.5)


def bench_fault_degradation(benchmark, capsys, bench_scale):
    def run_sweep():
        return fault_sweep(bench_scale, rates=FAULT_RATES)

    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    gc = tables("faults", result)[0]
    print_block(capsys,
                "Graceful degradation — GC vs. probe failure rate\n"
                + gc.text())

    for label in result.labels():
        series = result.series(label, metric="gc")
        # Reliability is strictly worth something, and even at a 50%
        # failure rate the run completes with usable completeness.
        assert series[0] > series[-1], label
        assert series[-1] > 0.0, label


def bench_breaker_ablation(benchmark, capsys, bench_scale):
    def run_ablation():
        return breaker_ablation(bench_scale)

    outcome = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_block(
        capsys,
        "Breaker ablation (resource 0 dead all epoch): "
        f"GC with breaker {outcome['with_breaker']:.4f} vs. "
        f"without {outcome['without_breaker']:.4f}")
    # Quarantining the dead resource redirects its wasted budget.
    assert outcome["with_breaker"] >= outcome["without_breaker"]
