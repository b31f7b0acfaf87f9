"""Experiment harness: instance generation, policy runs, sweeps.

The harness reproduces the paper's protocol (§5.1): for each parameter
setting generate ``repetitions`` independent problem instances (trace +
profiles), run every policy — and optionally the offline approximation —
on the *same* instances, and average gained completeness and runtime.

Both :func:`run_setting` and :func:`sweep` share out the independent
jobs — the generated instances their (setting, repetition) cells run
on — among forked worker processes, the caller one of them (see
:func:`_pool_map`). ``workers=None`` (the default) is one worker per
CPU this process may run on, capped by the jobs, so a one-instance
sweep and a one-CPU host stay serial and fork nothing; runs that report
their own runtime (the ``solo`` and ``reference`` engines) stay serial
too unless ``workers=N`` asks for N (see :func:`_pool_size`). Instance
generation is fully seeded per cell, so the parallel path produces
exactly the same gained-completeness numbers as the serial one; a
runtime measured beside another worker reads higher. Results are merged
back in the serial iteration order.
"""

from __future__ import annotations

import os
import pickle
import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.profile import ProfileSet
from repro.experiments.config import ENGINES, ExperimentConfig
from repro.experiments.instances import (
    InstanceCache,
    active_cache,
    generation_key,
)
from repro.online.base import key_of
from repro.online.registry import parse_policy_spec
from repro.simulation.batch import BatchUnsupported, FaultLane, run_block
from repro.simulation.proxy import run_online
from repro.simulation.result import SimulationResult
from repro.traces.events import UpdateTrace

__all__ = [
    "DEFAULT_ENGINE",
    "PolicyOutcome",
    "RunOutcome",
    "SweepResult",
    "make_instance",
    "run_setting",
    "sweep",
    "OFFLINE_LABEL",
]

OFFLINE_LABEL = "offline-approx"

#: The engine every experiment entry point resolves to unless told
#: otherwise: the columnar block kernel (:func:`run_block`), which
#: advances all policy runs sharing a generated instance as lanes of one
#: pass. Entry points that *report per-policy runtimes* name ``"solo"``
#: instead — the same kernel, every policy run a one-lane block of its
#: own — because a shared block has one wall time, not one per lane.
#: ``"reference"`` is the executable specification. ``ENGINES`` (in
#: :mod:`~repro.experiments.config`) names all three.
DEFAULT_ENGINE = "batch"

#: The policy line-up the paper's figures use most often.
DEFAULT_POLICIES: tuple[str, ...] = (
    "S-EDF(NP)", "S-EDF(P)", "MRSF(P)", "M-EDF(P)",
)


@dataclass(frozen=True, slots=True)
class PolicyOutcome:
    """Aggregated outcome of one policy over the repetitions."""

    label: str
    gc_values: tuple[float, ...]
    runtime_values: tuple[float, ...]

    @property
    def mean_gc(self) -> float:
        return statistics.fmean(self.gc_values)

    @property
    def stdev_gc(self) -> float:
        if len(self.gc_values) < 2:
            return 0.0
        return statistics.stdev(self.gc_values)

    @property
    def mean_runtime(self) -> float:
        return statistics.fmean(self.runtime_values)


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """All policy outcomes for one parameter setting.

    ``fell_back`` counts the (repetition, policy) runs planned for the
    columns (``"batch"`` or ``"solo"``) that went to the reference
    simulator instead (blocks the columnar form cannot encode: a policy
    overriding ``score``); under ``"reference"`` every run is
    planned there, so it is 0. ``engine`` names the engine that served
    the cells (empty for outcomes assembled by hand). ``block_ids``
    identifies the columnar passes that served them — shared with the
    other settings of a sweep whose cells rode the same passes — and
    ``blocks`` counts them: one per policy run under ``"solo"``.
    """

    config: ExperimentConfig
    outcomes: dict[str, PolicyOutcome]
    fell_back: int = 0
    engine: str = ""
    block_ids: frozenset = frozenset()

    @property
    def blocks(self) -> int:
        """Columnar passes (``run_block`` calls) that served this setting."""
        return len(self.block_ids)

    @property
    def shared_block(self) -> bool:
        """True when policy runs shared columnar blocks, so runtimes are
        even shares of a block's wall time, not per-policy timings."""
        return self.engine == "batch"

    def mean_gc(self, label: str) -> float:
        """Mean gained completeness of one policy."""
        return self.outcomes[label].mean_gc

    def mean_runtime(self, label: str) -> float:
        """Mean decision runtime (seconds) of one policy.

        Under a :attr:`shared_block` this is the block's wall time split
        evenly across its lanes — never a per-policy measurement.
        """
        return self.outcomes[label].mean_runtime

    def labels(self) -> list[str]:
        """All policy labels present in this outcome."""
        return list(self.outcomes)


@dataclass(frozen=True, slots=True)
class SweepResult:
    """GC/runtime series over a swept parameter (one paper figure panel)."""

    name: str
    parameter: str
    x_values: tuple
    runs: tuple[RunOutcome, ...]

    def series(self, label: str, metric: str = "gc") -> list[float]:
        """The metric series of one policy across the sweep."""
        if metric == "gc":
            return [run.mean_gc(label) for run in self.runs]
        if metric == "runtime":
            return [run.mean_runtime(label) for run in self.runs]
        raise ValueError(f"unknown metric {metric!r}")

    def labels(self) -> list[str]:
        """Policy labels present in the sweep (empty when no runs)."""
        return self.runs[0].labels() if self.runs else []

    @property
    def fell_back(self) -> int:
        """Total reference fallbacks across the sweep's runs."""
        return sum(run.fell_back for run in self.runs)

    @property
    def blocks(self) -> int:
        """Columnar passes made for the sweep (a pass shared by several
        settings counts once)."""
        return len(frozenset().union(*(run.block_ids for run in self.runs)))

    @property
    def engine(self) -> str:
        """The engine that served the sweep (its runs all share one)."""
        return self.runs[0].engine if self.runs else ""

    @property
    def shared_block(self) -> bool:
        """:attr:`RunOutcome.shared_block` of the sweep's runs."""
        return any(run.shared_block for run in self.runs)


def make_instance(config: ExperimentConfig, repetition: int,
                  source: str = "poisson", *,
                  cache: InstanceCache | None = None,
                  ) -> tuple[UpdateTrace, ProfileSet]:
    """One (trace, profiles) problem instance — cached when possible.

    Parameters
    ----------
    config:
        Experimental setting.
    repetition:
        Repetition index; folded into the seed so instances differ across
        repetitions but are reproducible.
    source:
        ``"poisson"`` for the synthetic Poisson(lambda) update model or
        ``"auction"`` for the eBay-like auction trace (the real-world
        substitute used by Figure 3).
    cache:
        Cache override; defaults to the process-wide cache (in-memory
        LRU, plus the disk store when ``--cache-dir`` is configured).
        Pass an :class:`InstanceCache` to isolate, e.g., a benchmark.
    """
    if cache is None:
        cache = active_cache()
    return cache.get_or_generate(config, repetition, source)


def _local_ratio_cell(profiles: ProfileSet,
                      config: ExperimentConfig) -> tuple[float, float]:
    """The ``OFFLINE_LABEL`` entry of a cell: Local-Ratio's
    ``(gc, runtime_seconds)``. The solver package is imported here, by
    the only cells that run it."""
    from repro.offline.local_ratio import LocalRatioApproximation

    result = LocalRatioApproximation().solve(
        profiles, config.epoch, config.budget_vector)
    return result.gc, result.runtime_seconds


#: Cell-dict keys under which the executor reports its reference
#: fallbacks (a count) and the columnar passes that served the cell (a
#: set of pass ids); :func:`_merge_cells` pops both before reading
#: policy labels.
_FELL_BACK = "__fell_back__"
_BLOCKS = "__blocks__"

#: Lane cap per columnar pass: bounds the (lanes x states) working-set
#: of one block; oversized blocks run as chunks over one lowering.
_MAX_BLOCK_LANES = 512

def _group_by_instance(cell_args: Sequence[tuple]) -> dict[str, list[int]]:
    """Cell positions grouped by the generated instance they run on.

    The key is the cell's :func:`generation_key`: budget, policies and
    fault layer are free to differ — they become lanes — while another
    repetition is another instance, hence another block. Blocks and
    pool jobs both split along these groups.
    """
    groups: dict[str, list[int]] = {}
    for at, args in enumerate(cell_args):
        config, repetition, _policies, _offline, source = args[:5]
        groups.setdefault(generation_key(config, repetition, source),
                          []).append(at)
    return groups


def _run_group(cell_args: Sequence[tuple], gkey: str,
               indices: Sequence[int]) -> list[dict[str, tuple]]:
    """The cells of one generated instance, in ``indices`` order: one
    :func:`_run_one_block`, and one :func:`_pool_map` job."""
    cells: list = [None] * len(cell_args)
    _run_one_block(cell_args, gkey, indices, cells)
    return [cells[at] for at in indices]


def _run_one_block(cell_args: Sequence[tuple], gkey: str,
                   indices: Sequence[int], cells: list) -> None:
    """Run the cells of one generated instance, writing into ``cells``.

    The one executor of every engine. Each (cell, policy) is a lane with
    its own copy of the cell's fault layer (:meth:`FaultLane.fresh`):
    ``"batch"`` runs blocks of up to :data:`_MAX_BLOCK_LANES` lanes over
    the cached lowering, ``"solo"`` one-lane blocks that lower the
    instance themselves (a runtime includes its lowering), and
    ``"reference"`` the reference simulator. A lane whose policy has no
    score row (``key_of`` is None) runs on the reference beside the
    block; a block the columns refuse (an instance whose keys overflow)
    runs there whole. Either way each such lane counts in ``fell_back``.
    """
    config, repetition, _policies, _offline, source, engine = \
        cell_args[indices[0]][:6]
    epoch = config.epoch
    _trace, profiles = make_instance(config, repetition, source=source)
    lanes: list[tuple] = []
    lane_home: list[tuple[int, str]] = []
    for at in indices:
        config, policies, fault = \
            cell_args[at][0], cell_args[at][2], cell_args[at][6]
        cells[at] = {}
        for label in policies:
            policy, preemptive = parse_policy_spec(label)
            lanes.append((policy, preemptive, config.budget_vector, 0,
                          fault.fresh() if fault is not None else None))
            lane_home.append((at, label))

    results: list = [None] * len(lanes)
    keyed = [] if engine == "reference" else [
        i for i, lane in enumerate(lanes) if key_of(lane[0]) is not None]
    size = 1 if engine == "solo" else _MAX_BLOCK_LANES
    columnar = None
    if keyed and engine == "batch":
        try:
            columnar = active_cache().lowering(config, repetition, source)
        except BatchUnsupported:
            keyed = []
    for lo in range(0, len(keyed), size):
        chunk = keyed[lo:lo + size]
        try:
            served = run_block(profiles, epoch, [lanes[i] for i in chunk],
                               columnar=columnar)
        except BatchUnsupported:
            continue
        for i, result in zip(chunk, served):
            results[i] = result
            at = lane_home[i][0]
            cells[at].setdefault(_BLOCKS, set()).add((gkey, lo // size))

    for (at, label), lane, result in zip(lane_home, lanes, results):
        if result is None:
            policy, preemptive, budget, _inst, fault = lane
            kwargs = {} if fault is None else dict(
                faults=fault.faults, retry=fault.retry,
                breaker=fault.breaker)
            result = run_online(profiles, epoch, budget, policy,
                                preemptive=preemptive, engine="reference",
                                **kwargs)
            if engine != "reference":
                cells[at][_FELL_BACK] = cells[at].get(_FELL_BACK, 0) + 1
        cells[at][label] = (result.gc, result.runtime_seconds)

    for at in indices:
        config, include_offline = cell_args[at][0], cell_args[at][3]
        if include_offline:
            cells[at][OFFLINE_LABEL] = _local_ratio_cell(profiles, config)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_size(workers: int | None, jobs: int, timed: bool = False) -> int:
    """The one "pool or serial" rule of every ``workers=`` parameter in
    the experiments: how many processes share ``jobs`` independent
    jobs, a pool when that is at least 2 and serial otherwise.

    ``workers=N`` is taken as given, capped by ``jobs``. ``None`` is one
    worker per usable CPU, capped by ``jobs`` — and 1 for ``timed`` jobs,
    whose results include their own wall time (a worker running beside
    them reads them 10–46 % slower on two CPUs), and where the platform
    cannot fork (:func:`_pool_map` needs ``os.fork``).
    """
    if workers is None:
        if timed or not hasattr(os, "fork"):
            return 1
        workers = _usable_cpus()
    return min(workers, jobs)


def _pool_map(fn: Callable, jobs: Sequence[tuple], size: int) -> list:
    """``[fn(*job) for job in jobs]`` on ``size`` processes (a
    :func:`_pool_size`) when that is at least 2; results in job order
    either way.

    The caller is one of the workers: it forks ``size - 1`` children,
    then runs jobs ``0, size, 2 * size, …`` itself while child ``w``
    runs jobs ``w, w + size, …``. A child keeps the caller's memory —
    its instance cache, lowerings and all — and sends its results, or
    the exception it raised, back pickled through a pipe. Every child
    is reaped before this returns or raises: one the caller no longer
    waits for (its own share raised, or another child's did) is killed
    first, and one that exits without a result is a
    :class:`RuntimeError`. Without ``os.fork`` there is no pool, and a
    ``size`` of 2 or more is a :class:`RuntimeError`.
    """
    if size < 2:
        return [fn(*job) for job in jobs]
    if not hasattr(os, "fork"):
        raise RuntimeError(
            f"workers={size} needs os.fork, which this platform lacks; "
            "pass workers=1 to run serially")
    results: list = [None] * len(jobs)
    children: dict[int, tuple[int, int]] = {}  # worker -> (pid, read fd)
    try:
        for worker in range(1, size):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve_share(fn, jobs[worker::size], read, write)
            os.close(write)
            children[worker] = (pid, read)
        results[0::size] = [fn(*job) for job in jobs[0::size]]
        for worker in list(children):
            results[worker::size] = _collect_share(*children.pop(worker))
    finally:
        if children:
            import signal

            for pid, read in children.values():
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _serve_share(fn: Callable, share: Sequence[tuple], read: int,
                 write: int) -> None:
    """A forked child's whole life: run its ``share`` of the jobs, write
    the pickled ``(ok, results or exception)`` to ``write``, and leave
    by ``os._exit`` — never returning into the caller's stack."""
    status = 1
    try:
        os.close(read)
        try:
            payload = True, [fn(*job) for job in share]
        except BaseException as exc:
            payload = False, exc
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _collect_share(pid: int, read: int) -> list:
    """A child's results from its pipe, once it has been reaped; the
    exception it raised is raised here."""
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _pid, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(
            f"pool worker {pid} exited without a result "
            f"(wait status {status})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _run_cells(cell_args: Sequence[tuple], workers: int | None,
               timed: bool) -> list[dict[str, tuple[float, float]]]:
    """Execute cells, on the processes :func:`_pool_size` gives for
    their generated instances, preserving serial order.

    A job is one instance (see :func:`_group_by_instance`): the cells
    that share it run as one block (for the batch engine, one columnar
    pass over one cached lowering). :func:`_pool_map` hands the jobs out
    in turn, so each worker gets an equal share of the instances and the
    caller the first — repetition 0, the one its cache most likely
    holds already. A one-instance sweep is one job, so it runs
    in-process; the repetitions of a setting are different instances,
    so even a one-parameter budget sweep spreads over up to
    ``repetitions`` workers. Results are scattered back into cell order
    — the serial path's ordering for any worker count.
    """
    groups = _group_by_instance(cell_args)
    served = _pool_map(
        _run_group,
        [(cell_args, gkey, indices) for gkey, indices in groups.items()],
        _pool_size(workers, len(groups), timed))
    cells: list[dict[str, tuple[float, float]]] = [None] * len(cell_args)
    for indices, group_cells in zip(groups.values(), served):
        for at, cell in zip(indices, group_cells):
            cells[at] = cell
    return cells


def _merge_cells(config: ExperimentConfig,
                 cells: Sequence[dict[str, tuple[float, float]]],
                 policies: Sequence[str],
                 include_offline: bool, engine: str) -> RunOutcome:
    """Fold per-repetition cells into a RunOutcome, in repetition order."""
    labels = list(policies) + ([OFFLINE_LABEL] if include_offline else [])
    gc_acc: dict[str, list[float]] = {label: [] for label in labels}
    rt_acc: dict[str, list[float]] = {label: [] for label in labels}
    fell_back = 0
    block_ids: set = set()
    for cell in cells:
        fell_back += cell.pop(_FELL_BACK, 0)
        block_ids |= cell.pop(_BLOCKS, set())
        for label in labels:
            gc, runtime = cell[label]
            gc_acc[label].append(gc)
            rt_acc[label].append(runtime)
    outcomes = {
        label: PolicyOutcome(label, tuple(gc_acc[label]),
                             tuple(rt_acc[label]))
        for label in labels
    }
    return RunOutcome(config=config, outcomes=outcomes,
                      fell_back=fell_back, engine=engine,
                      block_ids=frozenset(block_ids))


def _run_settings(configs: Sequence[ExperimentConfig],
                  policies: Sequence[str], include_offline: bool,
                  source: str, engine: str, workers: int | None,
                  fault_cell: Callable[[int, int], FaultLane] | None = None
                  ) -> list[RunOutcome]:
    """One :class:`RunOutcome` per config, from one flat cell list.

    All (setting, repetition) cells go to the executor together: the
    batch engine groups cells that share a generated instance (e.g. one
    repetition of every setting of a budget sweep) into one columnar
    block spanning config boundaries, and ``workers`` spreads the
    instances over the workers of one pool (:func:`_run_cells`).
    ``fault_cell(setting_index, repetition)`` supplies a cell's fault
    layer, a :class:`FaultLane` whose breaker is a template: every run
    takes a fresh copy. Cells merge in serial iteration order. An
    engine not in ``ENGINES`` is a :class:`ValueError` before any
    instance is generated.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of "
            f"{', '.join(map(repr, ENGINES))})")
    flat = [
        (config, repetition, tuple(policies), include_offline, source,
         engine,
         fault_cell(at, repetition) if fault_cell is not None else None)
        for at, config in enumerate(configs)
        for repetition in range(config.repetitions)
    ]
    # A batch lane reports no runtime of its own; solo and reference
    # runs do, so by default they are timed with no worker beside them.
    cells = _run_cells(flat, workers, timed=engine != "batch")
    runs = []
    cursor = 0
    for config in configs:
        span = cells[cursor:cursor + config.repetitions]
        cursor += config.repetitions
        runs.append(_merge_cells(config, span, policies, include_offline,
                                 engine))
    return runs


def run_setting(config: ExperimentConfig,
                policies: Sequence[str] = DEFAULT_POLICIES,
                include_offline: bool = False,
                source: str = "poisson",
                engine: str = DEFAULT_ENGINE,
                workers: int | None = None) -> RunOutcome:
    """Run every policy on ``repetitions`` shared instances and aggregate.

    The repetitions run on one worker per usable CPU
    (``workers=None``, at most one per repetition; serial for the
    runtime-reporting ``solo`` and ``reference`` engines) or on
    ``workers=N``; ``workers=1`` is serial. The gained-completeness
    output is identical to the serial path.
    """
    return _run_settings([config], policies, include_offline, source,
                         engine, workers)[0]


def sweep(name: str, base: ExperimentConfig, parameter: str,
          values: Sequence, policies: Sequence[str] = DEFAULT_POLICIES,
          include_offline: bool = False,
          source: str = "poisson",
          engine: str = DEFAULT_ENGINE,
          workers: int | None = None) -> SweepResult:
    """Sweep one config field over ``values``, rerunning all policies.

    The sweep's generated instances (one per repetition unless the
    field is generative) are its independent jobs: ``workers=None``
    runs them on one worker per usable CPU, capped by their number, so
    a one-instance sweep stays in-process, as does a ``solo`` or
    ``reference`` sweep, which reports runtimes; ``workers=1`` is
    serial. The gained-completeness numbers are identical for every
    engine and
    worker count (see :func:`_run_settings`).
    """
    configs = [base.with_(**{parameter: value}) for value in values]
    runs = _run_settings(configs, policies, include_offline, source,
                         engine, workers)
    return SweepResult(name=name, parameter=parameter,
                       x_values=tuple(values), runs=tuple(runs))
