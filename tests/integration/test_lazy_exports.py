"""Every package ``__init__`` is an export table (``repro._lazy``): the
public names are the ones the eager ``__init__``s exported, each is the
object its defining module holds, and a name once fetched is a plain
attribute of the package.

In-process and fast; that importing a package loads *nothing* is a
fresh-interpreter matter and lives in ``test_cold_import.py``.
"""

import pickle
import sys
from importlib import import_module

import pytest

#: Public names per package at the last eager commit (a5939b7);
#: ``repro.online`` has since traded ``apply_probes`` for the chronon
#: pair ``plan_chronon`` / ``settle_chronon``, and the three ``*_value``
#: score helpers for the score row ``ScoreKey`` and ``key_of``;
#: ``repro.simulation`` dropped ``batch_kind`` (``key_of`` replaced it);
#: ``repro.runtime.aio`` dropped ``BudgetLedger`` and ``AsyncProbeRound``
#: (the async executor drives the one retry cascade, which owns the
#: leftover budget and returns a plain ``ProbeRound``); ``repro.offline``
#: dropped its unused churn solver and ``clear_demand_cache``, the
#: demand-map cache hook only that solver called; ``repro.experiments``
#: traded ``sweep_table`` / ``sweep_csv`` for ``Table``, ``tables`` and
#: ``write_tables`` (every result renders through one table list); and
#: the specification language, the JSON codec and the forecaster are
#: gone, taking seven names from ``repro`` with them; and so are the
#: utility-weighting package, the federation sweep (four names of
#: ``repro.experiments``), the server fleet (one of ``repro.runtime``)
#: and the per-server semaphore table (one of ``repro.runtime.aio``);
#: and fault-trace replay — the trace class (from ``repro`` and
#: ``repro.faults``), the replaying source and its error — with the
#: strict probe's error (two names of ``repro.core``); and the second
#: retry type (``repro.faults``: ``RetryConfig`` carries the delays) and
#: the harness's per-cell fault record (``repro.experiments``: a cell
#: carries a ``FaultLane``); and the two pairwise conflict-graph
#: builders of ``repro.offline`` (their specification is
#: ``tests/offline/oracle.py``); and ``repro.workloads``' one-resource
#: restriction wrapper (a caller holds the restriction and calls it);
#: and the reference simulator class, from ``repro`` and
#: ``repro.simulation`` (``run_online(engine="reference")`` is the live
#: proxy).
PUBLIC_NAMES = {
    "repro": 65,
    "repro.analysis": 4,
    "repro.core": 26,
    "repro.experiments": 38,
    "repro.faults": 14,
    "repro.offline": 12,
    "repro.online": 23,
    "repro.runtime": 11,
    "repro.runtime.aio": 11,
    "repro.simulation": 10,
    "repro.traces": 12,
    "repro.workloads": 10,
}

packages = pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))


def test_every_package_under_src_is_listed():
    import pkgutil

    import repro
    found = {"repro"} | {
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg}
    assert found == set(PUBLIC_NAMES)


@packages
def test_public_names_are_the_eager_ones(package):
    exported = import_module(package).__all__
    assert len(exported) == len(set(exported)) == PUBLIC_NAMES[package]


@packages
def test_every_name_is_its_defining_modules_object(package):
    module = import_module(package)
    values = {name: getattr(module, name) for name in module.__all__}
    plain_modules = [
        holder for holder_name, holder in sys.modules.items()
        if holder_name.startswith("repro.")
        and not hasattr(holder, "__path__")]
    for name, value in values.items():
        # fetched once, it is a plain attribute: no second __getattr__
        assert vars(module)[name] is value
        if name == "__version__":
            continue
        holders = [holder for holder in plain_modules
                   if vars(holder).get(name) is value]
        assert holders, f"{package}.{name} is in no repro module"
        # classes and functions say where they were defined (a type
        # alias says ``typing``)
        defined_in = getattr(value, "__module__", None) or ""
        if defined_in.startswith("repro."):
            assert sys.modules[defined_in] in holders, (package, name)


@packages
def test_dir_lists_the_public_names(package):
    module = import_module(package)
    assert set(dir(module)) >= set(module.__all__)


@packages
def test_unknown_attribute_names_package_and_attribute(package):
    module = import_module(package)
    with pytest.raises(AttributeError) as missing:
        module.no_such_name
    assert package in str(missing.value)
    assert "no_such_name" in str(missing.value)
    assert not hasattr(module, "no_such_name")


@packages
def test_star_import_binds_exactly_the_public_names(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(import_module(package).__all__)


def test_submodules_import_through_the_package():
    from repro.experiments import faults
    from repro.simulation import batch
    assert batch is sys.modules["repro.simulation.batch"]
    assert faults is sys.modules["repro.experiments.faults"]


def test_lazily_fetched_dataclasses_pickle():
    import repro
    import repro.experiments
    spec = repro.FaultSpec(failure_probability=0.25, seed=7)
    config = repro.experiments.ExperimentConfig(num_profiles=5, seed=3)
    for value in (spec, config):
        assert pickle.loads(pickle.dumps(value)) == value
