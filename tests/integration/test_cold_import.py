"""The online paths run without scipy ever being imported.

Only the offline solvers need it (HiGHS for the MILP and the LP
guidance), and it costs most of ``import repro``'s cold start — so it
loads on a solver's first use. A fresh interpreter imports the package
and the experiment modules, runs a batch sweep and an incremental
churned run, checks that scipy did not arrive, and then runs every
offline solver with any import outside the standard library, numpy,
scipy and ``repro`` refused: the offline side needs no graph library.

Nor does anything under ``src/repro`` import the event engine
(``repro.simulation.engine``) any more: a second fresh interpreter
drives every entry point that used to reach it — the harness, its
fallbacks, the churned run, the federation, the whole CLI — and checks
the module never loaded. That is what makes deleting the file a
``git rm``.

And a cold start pays only for the path it takes: every package
``__init__`` is an export table (``repro/_lazy.py``), so ``import
repro`` loads no subpackage, the service host loads no experiment,
simulator or solver, the sweep modules load no analysis, async
runtime or process pool, and a one-instance batch sweep and fault
sweep, a federated and a churned run never load ``numpy.ma`` or a pool
(a two-instance sweep loads the pool inside the call, and only where
it has two CPUs to run on). The budgets below are module *sets*, not
milliseconds; the last one also checks the other direction — nothing a
timed call needs is left to be imported inside it.
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
from repro.online.registry import parse_policy_spec
from repro.simulation.churn import run_churned


def heavy():
    return sorted(name for name in ("scipy",) if name in sys.modules)


config = ExperimentConfig(epoch_length=20, num_resources=6, num_profiles=8,
                          intensity=4.0, window=4, repetitions=2, seed=3)
panel = sweep("s", config, "budget", [1, 2], workers=1)
assert panel.engine == "batch" and panel.blocks == 2, panel
initial, plan, epoch = build_churn_workload(ChurnConfig(
    epoch_length=30, num_resources=6, intensity=2.0, num_clients=4,
    profiles_per_client=2, seed=3))
policy, preemptive = parse_policy_spec("MRSF(P)")
run_churned(initial, epoch, BudgetVector(2), policy, plan,
            preemptive=preemptive)
assert heavy() == [], heavy()

import importlib.abc

# Private top-level names (``_sysconfigdata_...``) are the interpreter's.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "repro"}


class OnlyStdlibNumpyScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if not top.startswith("_") and top not in ALLOWED:
            raise ImportError(f"the offline side imported {name!r}")
        return None


sys.meta_path.insert(0, OnlyStdlibNumpyScipy())

from repro.experiments.harness import make_instance
from repro.offline import (
    EnumerationSolver,
    GreedyOfflineSolver,
    LocalRatioApproximation,
    MILPSolver,
)

unit = ExperimentConfig(epoch_length=20, num_resources=6, num_profiles=8,
                        intensity=4.0, window=0, repetitions=1, seed=3)
tiny = ExperimentConfig(epoch_length=12, num_resources=4, num_profiles=6,
                        intensity=3.0, window=2, repetitions=1, seed=3)
for cfg in (unit, config):
    _trace, profiles = make_instance(cfg, 0)
    assert profiles.is_unit_width == (cfg is unit)
    budget = cfg.budget_vector
    approx = LocalRatioApproximation().solve(profiles, cfg.epoch, budget)
    assert heavy() == ["scipy"], heavy()
    greedy = GreedyOfflineSolver().solve(profiles, cfg.epoch, budget)
    optimum = MILPSolver().solve(profiles, cfg.epoch, budget)
    assert 0.0 < approx.gc <= optimum.gc <= 1.0, (approx.gc, optimum.gc)
    assert 0.0 < greedy.gc <= optimum.gc, (greedy.gc, optimum.gc)
_trace, profiles = make_instance(tiny, 0)
exact = EnumerationSolver().solve(profiles, tiny.epoch, tiny.budget_vector)
assert exact.gc == MILPSolver().solve(
    profiles, tiny.epoch, tiny.budget_vector).gc
assert heavy() == ["scipy"], heavy()
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
from repro.online import registry
from repro.online.registry import parse_policy_spec
from repro.simulation import federated_run, run_churned, run_online
from tests.conformance.cases import LoudMRSF

registry._FACTORIES["LOUD-MRSF"] = LoudMRSF

config = ExperimentConfig(epoch_length=20, num_resources=6, num_profiles=8,
                          intensity=4.0, window=4, repetitions=2, seed=3)
# workers=1: a pool worker's imports are not this process's.
panel = sweep("s", config, "budget", [1, 2], ("MRSF(P)", "LOUD-MRSF(NP)"),
              workers=1)
assert panel.fell_back == 4, panel.fell_back
for engine in ("solo", "reference"):
    sweep("s", config, "budget", [1], engine=engine, workers=1)
fault_sweep(config=config, rates=(0.0, 0.3),
            policies=("S-EDF(P)", "LOUD-MRSF(P)"), workers=1)
initial, plan, epoch = build_churn_workload(ChurnConfig(
    epoch_length=30, num_resources=6, intensity=2.0, num_clients=4,
    profiles_per_client=2, join_spread=0.5, leave_probability=0.5, seed=3))
policy, preemptive = parse_policy_spec("MRSF(P)")
run_churned(initial, epoch, BudgetVector(2), policy, plan,
            preemptive=preemptive)
_trace, profiles = make_instance(config, 0)
budget = config.budget_vector
federated_run(profiles, config.epoch, budget, policy, shards=2)
run_online(profiles, config.epoch, budget, LoudMRSF())
recorder = FaultInjector(FaultSpec(failure_probability=0.4, seed=1))
recorded = run_online(profiles, config.epoch, budget, policy,
                      faults=recorder)
assert recorded.probes_failed > 0 and recorder.trace
with contextlib.redirect_stdout(io.StringIO()) as printed:
    assert repro.cli.main(["all", "--scale", "smoke",
                           "--workers", "1"]) == 0
assert "# engine=solo" in printed.getvalue()
assert "repro.simulation.engine" not in sys.modules
print("cold-import-ok")
"""

_LOADED = """
import sys


def loaded(*prefixes):
    return sorted(name for name in sys.modules
                  if any(name == prefix or name.startswith(prefix + ".")
                         for prefix in prefixes))
"""

_SERVICE_SCRIPT = _LOADED + """
import repro
assert loaded("repro") == ["repro", "repro._lazy"], loaded("repro")
assert "numpy.random" in sys.modules and "numpy.ma" not in sys.modules

# the imports of benchmarks/e2e/service_host.py
from repro import BudgetVector, Epoch, OriginServer, PoissonUpdateModel
from repro.online import MRSFPolicy
from repro.runtime.aio import (
    AdmissionController,
    AsyncMonitoringProxy,
    Journal,
    ProxyService,
)
from repro.runtime.aio.journal import replay_journal

unused = loaded("repro.simulation", "repro.experiments", "repro.offline",
                "repro.analysis", "repro.workloads")
assert unused == [], unused

import asyncio, os, tempfile
from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.profile import Profile


async def serve(path):
    epoch = Epoch(20)
    trace = PoissonUpdateModel(4.0, seed=1).generate(range(4), epoch)
    journal = Journal(path)
    proxy = AsyncMonitoringProxy(OriginServer(trace), epoch,
                                 BudgetVector(2), MRSFPolicy(),
                                 journal=journal)
    service = ProxyService(proxy, AdmissionController(max_tintervals=100))
    await service.start()
    try:
        status, _body = service.register("key", Profile([TInterval([
            ExecutionInterval(0, 2, 6), ExecutionInterval(1, 3, 8)])]))
        assert status == 201, status
        await service.serve_epoch()
    finally:
        await service.stop()
        journal.close()
    assert service.stats_payload()["stats"]["completed"] == 1
    assert len(replay_journal(path).completions) == 1


before = set(sys.modules)
with tempfile.TemporaryDirectory() as scratch:
    asyncio.run(serve(os.path.join(scratch, "journal")))
late = sorted(name for name in set(sys.modules) - before
              if name.startswith("repro"))
assert late == [], late
print("cold-import-ok")
"""

_SWEEP_SCRIPT = _LOADED + """
# the imports of benchmarks/e2e/workloads.py
import repro.experiments.harness, repro.experiments.faults
import repro.experiments.churn, repro.simulation.shard

unused = loaded("repro.analysis", "repro.runtime.aio",
                "multiprocessing", "concurrent.futures.process")
assert unused == [], unused

from repro.core.budget import BudgetVector
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.experiments.config import ExperimentConfig
from repro.experiments.faults import fault_sweep
from repro.experiments.harness import make_instance, sweep
from repro.online.registry import parse_policy_spec
from repro.simulation.churn import run_churned
from repro.simulation.shard import federated_run

config = ExperimentConfig(epoch_length=20, num_resources=6, num_profiles=8,
                          intensity=4.0, window=4, repetitions=2, seed=3)
one = config.with_(repetitions=1)
churn = ChurnConfig(epoch_length=30, num_resources=6, intensity=2.0,
                    num_clients=4, profiles_per_client=2, join_spread=0.5,
                    leave_probability=0.5, seed=3)
policy, preemptive = parse_policy_spec("M-EDF(P)")

# Nothing is deferred into a timed call: the serial paths the benchmark
# times (a one-instance sweep, an instance and its federated run, a
# churned run) import nothing of ours, no pool, and none of the stdlib
# modules that were once first imported mid-run.
before = set(sys.modules)
sweep("s", one, "budget", [1, 2])
fault_sweep(config=one, rates=(0.0, 0.3))
_trace, profiles = make_instance(config, 0)
federated_run(profiles, config.epoch, config.budget_vector, policy,
              preemptive=preemptive, shards=4)
initial, plan, epoch = build_churn_workload(churn)
run_churned(initial, epoch, BudgetVector(2), policy, plan,
            preemptive=preemptive)
late = sorted(
    name for name in set(sys.modules) - before
    if name.split(".")[0] in ("repro", "multiprocessing", "statistics",
                              "tempfile")
    or name == "concurrent.futures.process")
assert late == [], late
# Nor numpy.ma, which nothing on these paths needs: no np.unique or
# set routine (they reach np.ma.is_masked) is called on them.
assert loaded("numpy.ma") == [], loaded("numpy.ma")


# What was imported since ``before`` of ours, of the pool, and of the
# stdlib modules once first imported mid-run (multiprocessing as one).
def pool_modules(before):
    return sorted({
        "multiprocessing" if name.startswith("multiprocessing.") else name
        for name in set(sys.modules) - before
        if name.split(".")[0] in ("repro", "multiprocessing", "statistics",
                                  "tempfile")
        or name == "concurrent.futures.process"})


# A two-instance sweep is two jobs: on one usable CPU it stays serial
# and imports no pool ...
import os
os.sched_getaffinity = lambda _pid: {0}
serial = sweep("s", config, "budget", [1, 2])
assert pool_modules(before) == [], pool_modules(before)
# ... and with two it forks a child for the second, and still imports
# no pool.
forked = []
fork = os.fork
os.fork = lambda: forked.append(1) or fork()
os.sched_getaffinity = lambda _pid: {0, 1}
pooled = sweep("s", config, "budget", [1, 2])
assert forked == [1], forked
assert pool_modules(before) == [], pool_modules(before)
for run, serial_run in zip(pooled.runs, serial.runs):
    for label, outcome in serial_run.outcomes.items():
        assert run.outcomes[label].gc_values == outcome.gc_values
print("cold-import-ok")
"""


_CHURN_SWEEP_SCRIPT = _LOADED + """
from repro.experiments.churn import churn_sweep

assert len(churn_sweep("smoke").rows) == 6
# no churn engine consults the offline demand map: nothing to tear down
assert loaded("repro.offline") == [], loaded("repro.offline")
print("cold-import-ok")
"""


def _run_cold(script: str) -> None:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(root))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "cold-import-ok"


def test_online_paths_never_import_scipy():
    _run_cold(_SCRIPT)


def test_nothing_in_src_imports_the_event_engine():
    _run_cold(_ENGINE_SCRIPT)


def test_the_service_path_loads_no_experiment_simulator_or_solver():
    _run_cold(_SERVICE_SCRIPT)


def test_sweep_modules_load_no_pool_and_defer_nothing_into_a_timed_call():
    _run_cold(_SWEEP_SCRIPT)


def test_a_churn_sweep_loads_no_offline_module():
    _run_cold(_CHURN_SWEEP_SCRIPT)
