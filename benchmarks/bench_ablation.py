"""Ablation benches for the design choices DESIGN.md calls out.

1. **t-interval grouping** (indexed vs overlap): the policy ordering of
   Figure 3 depends on t-intervals pairing *temporally overlapping* EIs;
   this ablation quantifies the effect.
2. **Preemption**: P vs NP across the three policies at the baseline.
3. **Paper policies vs naive baselines**: S-EDF/MRSF/M-EDF against
   Random/FCFS/Coverage.
4. **Quota semantics** (§6 extension): all-required vs 2-of-k quotas on
   the same instances, under MRSF and Q-MRSF.

The ``run_setting`` benches time the user's path: their two
repetitions' instances run on a pool of the usable CPUs, as they do
from ``repro-experiments``.
"""

from __future__ import annotations

import pytest

from repro.core import Profile, ProfileSet, TInterval
from repro.experiments import ExperimentConfig, make_instance, run_setting
from repro.experiments.reporting import render_table
from repro.online import make_policy
from repro.simulation import run_online

from benchmarks.conftest import print_block

_BASE = ExperimentConfig(
    epoch_length=300, num_resources=120, num_profiles=150,
    intensity=10.0, window=15, repetitions=2, seed=90)


def bench_ablation_grouping(benchmark, capsys):
    """Indexed vs overlap grouping under the same trace statistics."""
    def run_both():
        rows = []
        for grouping in ("indexed", "overlap"):
            outcome = run_setting(
                _BASE.with_(grouping=grouping),
                policies=["S-EDF(P)", "MRSF(P)", "M-EDF(P)"])
            for label in outcome.labels():
                rows.append([grouping, label, outcome.mean_gc(label)])
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["grouping", "policy", "mean GC"], rows,
        title="Ablation — t-interval grouping"))


def bench_ablation_preemption(benchmark, capsys):
    """P vs NP for all three policies at the baseline."""
    def run_all():
        outcome = run_setting(_BASE, policies=[
            "S-EDF(NP)", "S-EDF(P)", "MRSF(NP)", "MRSF(P)",
            "M-EDF(NP)", "M-EDF(P)"])
        return [[label, outcome.mean_gc(label)]
                for label in outcome.labels()]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["policy", "mean GC"], rows, title="Ablation — preemption"))
    gc = dict(rows)
    assert gc["MRSF(P)"] >= gc["MRSF(NP)"]
    assert gc["M-EDF(P)"] >= gc["M-EDF(NP)"]


def bench_ablation_vs_baselines(benchmark, capsys):
    """The paper's policies against naive baselines."""
    def run_all():
        outcome = run_setting(_BASE, policies=[
            "MRSF(P)", "M-EDF(P)", "S-EDF(P)", "RANDOM", "FCFS",
            "COVERAGE", "LFF"])
        return [[label, outcome.mean_gc(label)]
                for label in outcome.labels()]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["policy", "mean GC"], rows,
        title="Ablation — paper policies vs naive baselines"))
    gc = dict(rows)
    assert gc["MRSF(P)"] > gc["RANDOM"]
    assert gc["M-EDF(P)"] > gc["FCFS"]


def bench_ablation_rank_level_variants(benchmark, capsys):
    """What inside MRSF does the work? Residual-awareness.

    StaticRank uses the same information level but ignores capture
    progress; anti-MRSF inverts the preference. Expected:
    MRSF > StaticRank > anti-MRSF.
    """
    def run_all():
        outcome = run_setting(_BASE, policies=[
            "MRSF(P)", "STATICRANK", "ANTI-MRSF"])
        return [[label, outcome.mean_gc(label)]
                for label in outcome.labels()]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["policy", "mean GC"], rows,
        title="Ablation — rank-level variants"))
    gc = dict(rows)
    assert gc["MRSF(P)"] >= gc["STATICRANK"]
    assert gc["STATICRANK"] >= gc["ANTI-MRSF"] - 0.02


def bench_ablation_budget_shape(benchmark, capsys):
    """Same total budget, different temporal shapes.

    The paper uses a constant C; the model allows any per-chronon vector.
    This ablation compares a constant budget of 1/chronon against a
    bursty shape (2 every other chronon) and a front-loaded shape
    (2/chronon for the first half, 0 after) with the same probe total.
    Expected: constant >= bursty >> front-loaded (late t-intervals starve).
    """
    from repro.core import BudgetVector
    from repro.online import make_policy
    from repro.simulation import run_online

    config = _BASE.with_(repetitions=1)
    _trace, profiles = make_instance(config, 0)
    epoch = config.epoch
    policy = make_policy("MRSF")
    horizon = config.epoch_length

    shapes = {
        "constant 1": BudgetVector(1),
        "bursty 2-every-2": BudgetVector(
            0, overrides={c: 2 for c in range(1, horizon + 1, 2)}),
        "front-loaded": BudgetVector(
            0, overrides={c: 2 for c in range(1, horizon // 2 + 1)}),
    }

    def run_all():
        rows = []
        for label, budget in shapes.items():
            result = run_online(profiles, epoch, budget, policy)
            rows.append([label, budget.total_over(epoch), result.gc])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["budget shape", "total probes", "GC"], rows,
        title="Ablation — budget shaping (equal totals)"))
    gc = {row[0]: row[2] for row in rows}
    assert gc["constant 1"] >= gc["bursty 2-every-2"] - 0.02
    assert gc["bursty 2-every-2"] > gc["front-loaded"]


def bench_ablation_offline_solvers(benchmark, capsys):
    """Local-Ratio decomposition vs plain greedy acceptance.

    Both share the exact matching feasibility check; the ablation
    isolates the value of the local-ratio acceptance order.
    """
    from repro.offline import GreedyOfflineSolver, LocalRatioApproximation

    config = _BASE.with_(window=0, grouping="indexed", num_profiles=100)
    _trace, profiles = make_instance(config, 0)
    epoch = config.epoch
    budget = config.budget_vector

    def run_both():
        local_ratio = LocalRatioApproximation().solve(profiles, epoch,
                                                      budget)
        greedy = GreedyOfflineSolver().solve(profiles, epoch, budget)
        return local_ratio, greedy

    local_ratio, greedy = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)
    print_block(capsys, render_table(
        ["solver", "GC (accepted)", "GC (free riders)", "runtime (s)"],
        [["local-ratio", local_ratio.gc,
          local_ratio.extras["gc_with_free_riders"],
          local_ratio.runtime_seconds],
         ["greedy", greedy.gc, greedy.extras["gc_with_free_riders"],
          greedy.runtime_seconds]],
        title="Ablation — offline acceptance order"))


def bench_ablation_quota_semantics(benchmark, capsys):
    """All-required vs 2-of-k capture quotas (paper §6 extension), each
    under MRSF and Q-MRSF — every run a one-lane block of the kernel."""
    _trace, profiles = make_instance(_BASE, 0)
    two_of_k = ProfileSet(
        Profile([TInterval(eta.eis, need=min(2, eta.size))
                 for eta in profile], name=profile.name)
        for profile in profiles)
    sets = {"all-required": profiles, "2-of-k quota": two_of_k}

    def run_all():
        return {(semantics, name): run_online(
                    members, _BASE.epoch, _BASE.budget_vector,
                    make_policy(name))
                for semantics, members in sets.items()
                for name in ("MRSF", "Q-MRSF")}

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_block(capsys, render_table(
        ["semantics", "policy", "GC"],
        [[semantics, name, result.gc]
         for (semantics, name), result in runs.items()],
        title="Ablation — quota semantics"))
    assert not any(result.extras.get("lowering_windows") is None
                   for result in runs.values())
    assert runs["2-of-k quota", "MRSF"].gc >= \
        runs["all-required", "MRSF"].gc - 1e-9
