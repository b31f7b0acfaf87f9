"""The online paths run without scipy and networkx ever being imported.

Only the offline solvers need them (HiGHS for the MILP and the LP
guidance, networkx for the reference conflict graphs), and they cost
most of ``import repro``'s cold start — so they load on a solver's first
use. A fresh interpreter imports the package and the experiment
modules, runs a batch sweep and an incremental churned run, checks that
neither library arrived, and then shows each solver still loads its own.

Nor does anything under ``src/repro`` import the event engine
(``repro.simulation.engine``) any more: a second fresh interpreter
drives every entry point that used to reach it — the harness, its
fallbacks, the churned run, the federation, the whole CLI — and checks
the module never loaded. That is what makes deleting the file a
``git rm``.
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
            preemptive=preemptive)
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


_ENGINE_SCRIPT = """
import contextlib, io, sys
import repro, repro.cli
from repro.core.budget import BudgetVector
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.experiments.config import ExperimentConfig
from repro.experiments.faults import fault_sweep
from repro.experiments.harness import make_instance, sweep
from repro.faults import FaultInjector, FaultSpec
from repro.online.baselines import RandomPolicy
from repro.online.registry import parse_policy_spec
from repro.simulation import federated_run, run_churned, run_online

config = ExperimentConfig(epoch_length=20, num_resources=6, num_profiles=8,
                          intensity=4.0, window=4, repetitions=2, seed=3)
panel = sweep("s", config, "budget", [1, 2], ("MRSF(P)", "RANDOM(NP)"))
assert panel.fell_back == 4, panel.fell_back
for engine in ("solo", "reference"):
    sweep("s", config, "budget", [1], engine=engine)
fault_sweep(config=config, rates=(0.0, 0.3),
            policies=("S-EDF(P)", "RANDOM(P)"))
initial, plan, epoch = build_churn_workload(ChurnConfig(
    epoch_length=30, num_resources=6, intensity=2.0, num_clients=4,
    profiles_per_client=2, join_spread=0.5, leave_probability=0.5, seed=3))
policy, preemptive = parse_policy_spec("MRSF(P)")
run_churned(initial, epoch, BudgetVector(2), policy, plan,
            preemptive=preemptive)
_trace, profiles = make_instance(config, 0)
budget = config.budget_vector
federated_run(profiles, config.epoch, budget, policy, shards=2)
run_online(profiles, config.epoch, budget, RandomPolicy())
recorder = FaultInjector(FaultSpec(failure_probability=0.4, seed=1))
recorded = run_online(profiles, config.epoch, budget, policy,
                      faults=recorder)
replayed = run_online(profiles, config.epoch, budget, policy,
                      faults=recorder.trace.replay())
assert replayed.probes_failed == recorded.probes_failed > 0
with contextlib.redirect_stdout(io.StringIO()) as printed:
    assert repro.cli.main(["all", "--scale", "smoke"]) == 0
assert "# engine=solo" in printed.getvalue()
assert "repro.simulation.engine" not in sys.modules
print("cold-import-ok")
"""


def _run_cold(script: str) -> None:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "cold-import-ok"


def test_online_paths_never_import_scipy_or_networkx():
    _run_cold(_SCRIPT)


def test_nothing_in_src_imports_the_event_engine():
    _run_cold(_ENGINE_SCRIPT)
