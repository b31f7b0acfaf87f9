"""The online paths run without scipy and networkx ever being imported.

Only the offline solvers need them (HiGHS for the MILP and the LP
guidance, networkx for the reference conflict graphs), and they cost
most of ``import repro``'s cold start — so they load on a solver's first
use. A fresh interpreter imports the package and the experiment
modules, runs a batch sweep and an incremental churned run, checks that
neither library arrived, and then shows each solver still loads its own.
"""

import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import sys
import repro, repro.cli, repro.experiments.harness, repro.experiments.churn
from repro.core.budget import BudgetVector
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import sweep
from repro.offline.conflict import clear_demand_cache
from repro.online.registry import parse_policy_spec
from repro.simulation.churn import run_churned


def heavy():
    return sorted(name for name in ("scipy", "networkx")
                  if name in sys.modules)


config = ExperimentConfig(epoch_length=20, num_resources=6, num_profiles=8,
                          intensity=4.0, window=4, repetitions=2, seed=3)
panel = sweep("s", config, "budget", [1, 2])
assert panel.engine == "batch" and panel.blocks == 2, panel
initial, plan, epoch = build_churn_workload(ChurnConfig(
    epoch_length=30, num_resources=6, intensity=2.0, num_clients=4,
    profiles_per_client=2, seed=3))
policy, preemptive = parse_policy_spec("MRSF(P)")
run_churned(initial, epoch, BudgetVector(2), policy, plan,
            preemptive=preemptive, mode="incremental")
clear_demand_cache()
assert heavy() == [], heavy()

from repro.experiments.harness import make_instance
from repro.offline import (
    LocalRatioApproximation,
    MILPSolver,
    overlap_graph,
)

_trace, profiles = make_instance(config, 0)
budget = config.budget_vector
approx = LocalRatioApproximation().solve(profiles, config.epoch, budget)
assert heavy() == ["scipy"], heavy()
optimum = MILPSolver().solve(profiles, config.epoch, budget)
assert 0.0 < approx.gc <= optimum.gc <= 1.0, (approx.gc, optimum.gc)
graph = overlap_graph(profiles)
assert heavy() == ["networkx", "scipy"], heavy()
assert graph.number_of_nodes() == sum(len(p) for p in profiles)
print("cold-import-ok")
"""


def test_online_paths_never_import_scipy_or_networkx():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "cold-import-ok"
