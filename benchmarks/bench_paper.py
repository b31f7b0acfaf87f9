"""The paper's Table 1 and Figures 3-8: one bench per table/figure.

Each bench regenerates its result at ``REPRO_BENCH_SCALE`` (default
``default``), prints the tables :func:`repro.experiments.reporting.tables`
makes of it — the tables ``repro-experiments`` prints and writes — and
asserts the paper's qualitative *shape* (who wins, where trends point).
The ``benchmark`` fixture times one representative smoke-scale run.

* Table 1: all six policy variants at the baseline setting. Shape: the
  rank/multi-EI preemptive policies lead.
* Figure 3 — policy comparison on the (synthetic) eBay auction trace.
  Paper setting: AuctionWatch(3), 400 auctions, window W = 20, budget
  C = 2. Expected shape (§5.2): MRSF(P) and M-EDF(P) beat S-EDF, and
  preemption helps the rank/multi-EI policies, with up to ~20% gap
  between (P) and (NP) variants.
* Figure 4 — online policies vs the offline approximation over rank(P),
  at W = 0 and C = 1 (``P^[1]`` instances). Expected shape (§5.3): GC
  decreases with rank; at rank 1 the online policies are optimal;
  MRSF(P) beats the offline approximation (paper: by 11-23%); S-EDF(NP)
  falls below the offline approximation for rank > 2.
* Figure 5 — runtime scalability of offline vs online solutions.
  Expected shape (§5.4): the offline approximation's runtime grows much
  faster than the online policies' (superlinear vs ~linear in the number
  of profiles). Our Local-Ratio implementation is more efficient than
  the paper's (single LP + incremental matching; DESIGN.md §5), so at
  small instance counts its absolute runtime can sit below the online
  policies'; the superlinear growth — and the crossover within panel 1's
  sweep — is the reproduced claim.
* Figure 6 — workload analysis. Expected shape (§5.5): GC decreases as
  the update intensity lambda grows (panel 1) and as the number of
  profiles grows (panel 2); MRSF(P) and M-EDF(P) sit clearly above both
  S-EDF variants.
* Figure 7 — user preferences. Expected shape (§5.6): GC increases with
  alpha (inter-user preference: popular resources concentrate demand)
  and with beta (intra-user preference: simpler profiles).
* Figure 8 — budgetary limitations. Expected shape (§5.7): GC rises
  markedly with the per-chronon budget C; MRSF(P)/M-EDF(P) use the
  budget at least as well as S-EDF at the strict C = 1 end; S-EDF(NP)
  improves sub-linearly compared to S-EDF(P).
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    OFFLINE_LABEL,
    baseline,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    run_setting,
    table1,
)
from repro.experiments.figures import ALL_POLICY_VARIANTS
from repro.experiments.reporting import tables

from benchmarks.conftest import print_block


def _print(capsys, name: str, result) -> None:
    for table in tables(name, result):
        print_block(capsys, table.text())


@pytest.fixture(scope="module")
def table1_outcome(bench_scale):
    return table1(bench_scale)


@pytest.fixture(scope="module")
def fig3(bench_scale):
    return figure3(bench_scale)


@pytest.fixture(scope="module")
def fig4(bench_scale):
    return figure4(bench_scale)


@pytest.fixture(scope="module")
def fig5(bench_scale):
    return figure5(bench_scale)


@pytest.fixture(scope="module")
def fig6(bench_scale):
    return figure6(bench_scale)


@pytest.fixture(scope="module")
def fig7(bench_scale):
    return figure7(bench_scale)


@pytest.fixture(scope="module")
def fig8(bench_scale):
    return figure8(bench_scale)


def bench_table1_baseline_run(benchmark, bench_scale, table1_outcome,
                              capsys):
    """Time one full policy run at the baseline; print the table."""
    config = baseline(bench_scale).with_(repetitions=1)
    benchmark.pedantic(
        # One policy is one lane: the block's time is the run's.
        lambda: run_setting(config, policies=["MRSF(P)"]),
        rounds=1, iterations=1)

    _print(capsys, "table1", table1_outcome)

    # Shape: the rank/multi-EI preemptive policies lead at the baseline.
    gc = {label: table1_outcome.mean_gc(label)
          for label in ALL_POLICY_VARIANTS}
    assert gc["MRSF(P)"] > gc["S-EDF(NP)"]
    assert gc["M-EDF(P)"] > gc["S-EDF(NP)"]


def bench_fig3_auction_trace(benchmark, bench_scale, fig3, capsys):
    benchmark.pedantic(lambda: figure3("smoke"), rounds=1, iterations=1)

    _print(capsys, "fig3", fig3)

    gc = {label: fig3.mean_gc(label) for label in ALL_POLICY_VARIANTS}
    if bench_scale == "smoke":
        return  # too noisy for shape assertions
    # MRSF(P)/M-EDF(P) beat both S-EDF variants.
    assert gc["MRSF(P)"] > gc["S-EDF(NP)"]
    assert gc["M-EDF(P)"] > gc["S-EDF(NP)"]
    assert gc["M-EDF(P)"] >= gc["S-EDF(P)"] - 0.02
    assert gc["MRSF(P)"] >= gc["S-EDF(P)"] - 0.02
    # Preemption helps the t-interval-aware policies.
    assert gc["MRSF(P)"] >= gc["MRSF(NP)"]
    assert gc["M-EDF(P)"] >= gc["M-EDF(NP)"]


def bench_fig4_rank_sweep(benchmark, bench_scale, fig4, capsys):
    benchmark.pedantic(lambda: figure4("smoke"), rounds=1, iterations=1)

    _print(capsys, "fig4", fig4)

    if bench_scale == "smoke":
        return
    mrsf = fig4.series("MRSF(P)")
    sedf = fig4.series("S-EDF(NP)")
    offline = fig4.series(OFFLINE_LABEL)

    # GC decreases with rank.
    assert mrsf[0] > mrsf[-1]
    # Rank 1: the online policies coincide (per-chronon optimal).
    assert abs(mrsf[0] - sedf[0]) < 1e-9
    # MRSF(P) dominates the offline approximation at every rank.
    for rank_index in range(len(mrsf)):
        assert mrsf[rank_index] >= offline[rank_index]
    # S-EDF(NP) is dominated by the offline approximation for rank > 2.
    for rank_index, rank in enumerate(fig4.x_values):
        if rank > 2:
            assert sedf[rank_index] <= offline[rank_index] + 0.01


def bench_fig5_runtime_scalability(benchmark, bench_scale, fig5, capsys):
    benchmark.pedantic(lambda: figure5("smoke"), rounds=1, iterations=1)

    _print(capsys, "fig5", fig5)

    if bench_scale == "smoke":
        return
    offline = fig5.left.series(OFFLINE_LABEL, metric="runtime")
    online = fig5.left.series("MRSF(P)", metric="runtime")

    # Offline runtime grows superlinearly: the last/first ratio exceeds
    # the sweep's size ratio; online grows ~linearly (within 2x slack).
    size_ratio = fig5.left.x_values[-1] / fig5.left.x_values[0]
    assert offline[-1] / max(offline[0], 1e-9) > size_ratio
    assert online[-1] / max(online[0], 1e-9) < 2.5 * size_ratio

    # Offline growth outpaces online growth.
    offline_growth = offline[-1] / max(offline[0], 1e-9)
    online_growth = online[-1] / max(online[0], 1e-9)
    assert offline_growth > online_growth

    # Panel 2: online policies stay ~linear at 2.5x intensity.
    for label in fig5.right.labels():
        series = fig5.right.series(label, metric="runtime")
        assert series[-1] / max(series[0], 1e-9) < 2.5 * (
            fig5.right.x_values[-1] / fig5.right.x_values[0])


def bench_fig6_workload_analysis(benchmark, bench_scale, fig6, capsys):
    benchmark.pedantic(lambda: figure6("smoke"), rounds=1, iterations=1)

    _print(capsys, "fig6", fig6)

    if bench_scale == "smoke":
        return
    for panel in (fig6.left, fig6.right):
        for label in panel.labels():
            series = panel.series(label)
            # Monotone decreasing trend (small noise tolerated).
            assert series[0] > series[-1]
        # The t-interval-aware policies dominate S-EDF wherever the
        # workload is budget-bound (near saturation, GC > 0.9, every
        # policy captures almost everything and orderings are noise).
        for index in range(len(panel.x_values)):
            mrsf = panel.series("MRSF(P)")[index]
            medf = panel.series("M-EDF(P)")[index]
            sedf_np = panel.series("S-EDF(NP)")[index]
            if sedf_np >= 0.9:
                continue
            assert mrsf >= sedf_np
            assert medf >= sedf_np


def bench_fig7_user_preferences(benchmark, bench_scale, fig7, capsys):
    benchmark.pedantic(lambda: figure7("smoke"), rounds=1, iterations=1)

    _print(capsys, "fig7", fig7)

    if bench_scale == "smoke":
        return
    # Panel 1: GC rises with alpha for every policy.
    for label in fig7.left.labels():
        series = fig7.left.series(label)
        assert series[-1] > series[0]
    # Panel 2: GC rises with beta for every policy.
    for label in fig7.right.labels():
        series = fig7.right.series(label)
        assert series[-1] > series[0]
    # The t-interval-aware policies keep their lead at moderate skew.
    mid = len(fig7.right.x_values) // 2
    assert fig7.right.series("MRSF(P)")[mid] >= \
        fig7.right.series("S-EDF(NP)")[mid]


def bench_fig8_budget_sweep(benchmark, bench_scale, fig8, capsys):
    benchmark.pedantic(lambda: figure8("smoke"), rounds=1, iterations=1)

    _print(capsys, "fig8", fig8)

    if bench_scale == "smoke":
        return
    for label in fig8.labels():
        series = fig8.series(label)
        # Monotone increasing in budget.
        for left, right in zip(series, series[1:]):
            assert right >= left - 0.02
        # Remarkable increase overall.
        assert series[-1] > series[0] * 1.3

    # At the strict C=1 end, the t-interval-aware policies lead.
    assert fig8.series("MRSF(P)")[0] >= fig8.series("S-EDF(NP)")[0]
    # S-EDF(NP) utilizes additional budget no better than S-EDF(P).
    sedf_np_gain = fig8.series("S-EDF(NP)")[-1] - fig8.series("S-EDF(NP)")[0]
    sedf_p_gain = fig8.series("S-EDF(P)")[-1] - fig8.series("S-EDF(P)")[0]
    assert sedf_p_gain >= sedf_np_gain - 0.05
