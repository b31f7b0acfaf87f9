"""Table 1 companion: all six policy variants at the baseline setting.

Regenerates the baseline configuration dump (the paper's Table 1) and the
gained completeness of every policy variant at that baseline.
"""

from __future__ import annotations

import pytest

from repro.experiments import baseline, run_setting, table1
from repro.experiments.figures import ALL_POLICY_VARIANTS
from repro.experiments.reporting import render_table

from benchmarks.conftest import print_block


@pytest.fixture(scope="module")
def table1_outcome(bench_scale):
    return table1(bench_scale)


def bench_table1_baseline_run(benchmark, bench_scale, table1_outcome,
                              capsys):
    """Time one full policy run at the baseline; print the table."""
    config = baseline(bench_scale).with_(repetitions=1)
    benchmark.pedantic(
        # One policy is one lane: the block's time is the run's.
        lambda: run_setting(config, policies=["MRSF(P)"]),
        rounds=1, iterations=1)

    rows = [[label,
             table1_outcome.outcomes[label].mean_gc,
             table1_outcome.outcomes[label].stdev_gc,
             table1_outcome.outcomes[label].mean_runtime]
            for label in ALL_POLICY_VARIANTS]
    print_block(capsys, render_table(
        ["policy", "mean GC", "stdev", "runtime (s)"], rows,
        title="Table 1 companion — baseline gained completeness"))
    print_block(capsys, render_table(
        ["parameter", "value"], table1_outcome.config.describe(),
        title="Table 1 — controlled parameters (baseline)"))

    # Shape: the rank/multi-EI preemptive policies lead at the baseline.
    gc = {label: table1_outcome.mean_gc(label)
          for label in ALL_POLICY_VARIANTS}
    assert gc["MRSF(P)"] > gc["S-EDF(NP)"]
    assert gc["M-EDF(P)"] > gc["S-EDF(NP)"]
