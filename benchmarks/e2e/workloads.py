"""The three batch workloads, as run inside one child interpreter.

Each workload is four functions over plain dicts:

* ``prepare(seed, size)`` builds the inputs that are *not* part of what
  the user waits for (booked to ``setup_s``);
* ``run(inputs)`` is the timed region — only public entry points, called
  through their module so the tracer's wrappers are seen, and never with
  an ``engine=`` or ``workers=`` argument: the defaults are measured. It
  returns ``wall_s``, the named ``parts`` of it, and the raw results;
* ``describe(inputs, outcome)`` sizes and hashes the results (untimed,
  after the tracer's wrappers are gone);
* ``verify(inputs, outcome, reference)`` checks the outputs and returns
  ``{check name: passed}``: structural checks always, and with
  ``reference`` the reruns through a second implementation, which cost
  about as much as the timed region.

``digest`` is a short hash of the complete result; for the default seed
it must equal the committed golden value.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.core.budget import BudgetVector
from repro.core.completeness import evaluate_schedule
from repro.experiments import churn as churn_experiment
from repro.experiments import faults as fault_experiment
from repro.experiments import harness
from repro.experiments.config import ExperimentConfig
from repro.online.registry import parse_policy_spec
from repro.simulation import churn as churn_engine
from repro.simulation import shard
from repro.simulation.columnar import ColumnarInstance

__all__ = ["BATCH_WORKLOADS"]

BUDGETS = (1, 2, 3, 4, 5)
CATALOG_POLICY = "M-EDF(P)"
CATALOG_SHARDS = 4
CHURN_POLICIES = ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _probes(schedule) -> list:
    return [list(probe) for probe in schedule.probes()]


def _count_tintervals(profiles) -> int:
    return sum(len(profile) for profile in profiles)


# ----------------------------------------------------------------------
# figures: the researcher's path
# ----------------------------------------------------------------------

def figures_prepare(seed: int, size: dict) -> dict:
    config = ExperimentConfig(
        epoch_length=size["epoch_length"],
        num_resources=size["num_resources"],
        num_profiles=size["num_profiles"], max_rank=3,
        intensity=size["intensity"], window=20, grouping="overlap",
        repetitions=1, seed=seed)
    return {"config": config,
            "fault_config": config.with_(budget=2, repetitions=2)}


def figures_run(inputs: dict) -> dict:
    config, fault_config = inputs["config"], inputs["fault_config"]
    started = time.perf_counter()
    budget_panel = harness.sweep("budget", config, "budget", BUDGETS,
                                 policies=harness.DEFAULT_POLICIES)
    between = time.perf_counter()
    fault_panel = fault_experiment.fault_sweep(config=fault_config)
    ended = time.perf_counter()
    return {"wall_s": ended - started,
            "parts": {"budget_sweep_s": between - started,
                      "fault_sweep_s": ended - between},
            "panels": (budget_panel, fault_panel)}


def figures_describe(inputs: dict, outcome: dict) -> dict:
    fault_config = inputs["fault_config"]
    budget_panel, fault_panel = outcome["panels"]
    # Every t-interval is decided (captured, expired or dropped) by the
    # end of each policy run, so decided = instance size x runs. The
    # instances are in the harness's cache by now.
    per_repetition = [
        _count_tintervals(harness.make_instance(fault_config, rep)[1])
        for rep in range(fault_config.repetitions)]
    budget_runs = len(BUDGETS) * len(harness.DEFAULT_POLICIES)
    fault_lanes = len(fault_panel.x_values) * len(fault_panel.labels())
    series = {
        "budget": {label: budget_panel.series(label)
                   for label in budget_panel.labels()},
        "faults": {label: fault_panel.series(label)
                   for label in fault_panel.labels()},
    }
    return {
        "tintervals": (per_repetition[0] * budget_runs
                       + sum(per_repetition) * fault_lanes),
        "digest": _digest(series),
        "summary": {"policy_runs": budget_runs,
                    "fault_lanes": fault_lanes * len(per_repetition),
                    "instance_tintervals": per_repetition[0],
                    "gc_by_budget_MRSF(P)": series["budget"]["MRSF(P)"],
                    "fell_back": (budget_panel.fell_back
                                  + fault_panel.fell_back)},
    }


def figures_verify(inputs: dict, outcome: dict, reference: bool) -> dict:
    """Every GC a ratio; one cell per panel re-run through the reference
    engine."""
    budget_panel, fault_panel = outcome["panels"]
    checks = {"gc_in_unit_interval": all(
        0.0 <= value <= 1.0
        for panel in (budget_panel, fault_panel)
        for label in panel.labels() for value in panel.series(label))}
    if not reference:
        return checks
    budget, label = 3, "MRSF(P)"
    rerun = harness.run_setting(
        inputs["config"].with_(budget=budget), policies=(label,),
        engine="reference")
    cell = budget_panel.runs[BUDGETS.index(budget)]
    checks["budget_cell_matches_reference"] = (
        cell.outcomes[label].gc_values == rerun.outcomes[label].gc_values)

    rate, label = 0.3, "M-EDF(NP)"
    rerun = fault_experiment.run_fault_setting(
        inputs["fault_config"], rate, policies=(label,),
        engine="reference")
    cell = fault_panel.runs[fault_panel.x_values.index(rate)]
    checks["fault_cell_matches_reference"] = (
        cell.outcomes[label].gc_values == rerun.outcomes[label].gc_values)
    return checks


# ----------------------------------------------------------------------
# catalog: the capacity planner's path
# ----------------------------------------------------------------------

def catalog_prepare(seed: int, size: dict) -> dict:
    return {"config": ExperimentConfig(
        epoch_length=100, num_resources=500,
        num_profiles=size["num_profiles"], intensity=20, budget=16,
        window=5, seed=seed)}


def _federate(config, profiles, shards: int, columnar=None):
    policy, preemptive = parse_policy_spec(CATALOG_POLICY)
    return shard.federated_run(
        profiles, config.epoch, config.budget_vector, policy,
        preemptive=preemptive, shards=shards, columnar=columnar)


def catalog_run(inputs: dict) -> dict:
    config = inputs["config"]
    started = time.perf_counter()
    _trace, profiles = harness.make_instance(config, 0)
    generated = time.perf_counter()
    federated = _federate(config, profiles, CATALOG_SHARDS)
    ended = time.perf_counter()
    return {"wall_s": ended - started,
            "parts": {"generate_s": generated - started,
                      "federated_run_s": ended - generated},
            "profiles": profiles, "federated": federated}


def catalog_describe(inputs: dict, outcome: dict) -> dict:
    result = outcome["federated"].result
    return {
        "tintervals": result.report.total,
        "digest": _digest({"gc": result.gc,
                           "probes": _probes(result.schedule)}),
        "summary": {"profiles": inputs["config"].num_profiles,
                    "gc": result.gc, "probes": result.probes_used},
    }


def catalog_verify(inputs: dict, outcome: dict, reference: bool) -> dict:
    """Budget, conservation and recomputed GC; K=4 against a K=1 rerun
    on an explicit lowering."""
    config, profiles = inputs["config"], outcome["profiles"]
    result = outcome["federated"].result
    report = evaluate_schedule(profiles, result.schedule)
    checks = {
        "respects_budget": result.schedule.respects_budget(
            config.budget_vector, config.epoch),
        "gc_recomputed": report.gc == result.gc
            and report.captured == result.report.captured,
        "conservation": _conserved(result),
    }
    if reference:
        columnar = ColumnarInstance.build(profiles, config.epoch)
        monolith = _federate(config, profiles, 1, columnar=columnar).result
        checks["sharded_schedule_equals_monolith"] = \
            _probes(result.schedule) == _probes(monolith.schedule)
    return checks


# ----------------------------------------------------------------------
# live-churn: the operator's path
# ----------------------------------------------------------------------

def churn_prepare(seed: int, size: dict) -> dict:
    config = churn_experiment.ChurnConfig(
        epoch_length=size["epoch_length"],
        num_resources=size["num_resources"],
        intensity=size["intensity"], num_clients=size["num_clients"],
        profiles_per_client=12, window=20, budget=2, join_spread=0.9,
        leave_probability=0.5, seed=seed)
    initial, plan, epoch = churn_experiment.build_churn_workload(config)
    return {"config": config, "initial": initial, "plan": plan,
            "epoch": epoch}


def churn_run(inputs: dict) -> dict:
    budget = BudgetVector(inputs["config"].budget)
    parts: dict[str, float] = {}
    results = {}
    began = time.perf_counter()
    for label in CHURN_POLICIES:
        policy, preemptive = parse_policy_spec(label)
        started = time.perf_counter()
        results[label] = churn_engine.run_churned(
            inputs["initial"], inputs["epoch"], budget, policy,
            inputs["plan"], preemptive=preemptive, mode="incremental")
        parts[f"{label}_s"] = time.perf_counter() - started
    return {"wall_s": time.perf_counter() - began, "parts": parts,
            "results": results}


def churn_describe(inputs: dict, outcome: dict) -> dict:
    results = outcome["results"]
    return {
        "tintervals": sum(result.report.total
                          for result in results.values()),
        "digest": _digest({label: {"gc": result.gc,
                                   "probes": _probes(result.schedule)}
                           for label, result in results.items()}),
        "summary": {"events": len(inputs["plan"]),
                    "gc": {label: result.gc
                           for label, result in results.items()}},
    }


def _conserved(result) -> bool:
    dropped = int(result.extras.get("dropped", 0))
    return (result.report.total
            == result.report.captured + result.expired + dropped)


def churn_verify(inputs: dict, outcome: dict, reference: bool) -> dict:
    """Structural only: the incremental engine's referee (``rebuild``
    mode) takes minutes at this size and is tier-1's job."""
    budget = BudgetVector(inputs["config"].budget)
    results = outcome["results"].values()
    return {
        "respects_budget": all(
            result.schedule.respects_budget(budget, inputs["epoch"])
            for result in results),
        "conservation": all(_conserved(result) for result in results),
    }


BATCH_WORKLOADS = {
    "figures": (figures_prepare, figures_run, figures_describe,
                figures_verify),
    "catalog": (catalog_prepare, catalog_run, catalog_describe,
                catalog_verify),
    "live-churn": (churn_prepare, churn_run, churn_describe,
                   churn_verify),
}
