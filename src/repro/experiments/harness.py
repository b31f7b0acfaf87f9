"""Experiment harness: instance generation, policy runs, sweeps.

The harness reproduces the paper's protocol (§5.1): for each parameter
setting generate ``repetitions`` independent problem instances (trace +
profiles), run every policy — and optionally the offline approximation —
on the *same* instances, and average gained completeness and runtime.

Both :func:`run_setting` and :func:`sweep` farm the independent jobs —
the generated instances their (setting, repetition) cells run on — out
to a process pool. ``workers=None`` (the default) is one worker per CPU
this process may run on, capped by the jobs, so a one-instance sweep
and a one-CPU host stay serial and build no pool; runs that report
their own runtime (the ``solo`` and ``reference`` engines) stay serial
too unless ``workers=N`` asks for N (see :func:`_pool_size`). Instance
generation is fully seeded per cell, so the parallel path produces
exactly the same gained-completeness numbers as the serial one; a
runtime measured in a pool worker reads higher, with another worker
beside it. Results are merged back in the serial iteration order.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.profile import ProfileSet
from repro.experiments.config import ENGINES, ExperimentConfig
from repro.experiments.instances import (
    InstanceCache,
    _pool_worker_init,
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
    simulator instead (policies without a score row, or blocks the
    columnar form cannot encode); under ``"reference"`` every run is
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
    repetition is another instance, hence another block. Serial blocks
    and worker chunks both split along these groups.
    """
    groups: dict[str, list[int]] = {}
    for at, args in enumerate(cell_args):
        config, repetition, _policies, _offline, source = args[:5]
        groups.setdefault(generation_key(config, repetition, source),
                          []).append(at)
    return groups


def _run_cells_serial(cell_args: Sequence[tuple]
                      ) -> list[dict[str, tuple[float, float]]]:
    """Run cells in-process, one :func:`_run_one_block` per generated
    instance (see :func:`_group_by_instance`), for every engine. Results
    land in the original cell order."""
    cells: list[dict[str, tuple[float, float]]] = [None] * len(cell_args)
    for gkey, indices in _group_by_instance(cell_args).items():
        _run_one_block(cell_args, gkey, indices, cells)
    return cells


def _run_one_block(cell_args: Sequence[tuple], gkey: str,
                   indices: Sequence[int], cells: list) -> None:
    """Run the cells of one generated instance, writing into ``cells``.

    The one executor of every engine. Each (cell, policy) is a lane with
    its own copy of the cell's fault layer (:meth:`FaultLane.fresh`):
    ``"batch"`` runs blocks of up to :data:`_MAX_BLOCK_LANES` lanes over
    the cached lowering, ``"solo"`` one-lane blocks that lower the
    instance themselves (a runtime includes its lowering), and
    ``"reference"`` the reference simulator. A lane the columns refuse
    runs on the reference too, counted in ``fell_back``.
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


def _process_pool(workers: int, **kwargs):
    """A process pool of ``workers`` — what every ``workers=`` branch
    of the experiments builds. ``concurrent.futures.process`` brings in
    ``multiprocessing``, which no serial run needs, so it is imported
    here."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, **kwargs)


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
    cannot fork: a spawned worker re-imports the package, which takes
    longer than a block.
    """
    if workers is None:
        if timed or not hasattr(os, "fork"):
            return 1
        workers = _usable_cpus()
    return min(workers, jobs)


def _pool_map(fn: Callable, jobs: Sequence[tuple], size: int) -> list:
    """``[fn(*job) for job in jobs]``, on a pool of ``size`` processes
    (a :func:`_pool_size`) when that is at least 2; results in job
    order either way.

    Every worker is initialized with the parent's cache directory, so a
    shared ``--cache-dir`` lets workers reuse stored instances. Workers
    are forked where the platform can fork, whatever its default start
    method. The pool is shut down before this returns.
    """
    if size < 2:
        return [fn(*job) for job in jobs]
    cache_dir = active_cache().cache_dir
    kwargs = dict(initializer=_pool_worker_init,
                  initargs=(None if cache_dir is None else str(cache_dir),))
    if hasattr(os, "fork"):
        import multiprocessing

        kwargs["mp_context"] = multiprocessing.get_context("fork")
    with _process_pool(size, **kwargs) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [future.result() for future in futures]


def _run_cells(cell_args: Sequence[tuple], workers: int | None,
               timed: bool) -> list[dict[str, tuple[float, float]]]:
    """Execute cells, on a process pool when :func:`_pool_size` gives
    one for their generated instances, preserving serial order.

    The jobs are the instances (see :func:`_group_by_instance`): cells
    that share one go to the same chunk — one worker then serves them
    from one cache entry (and, for the batch engine, one columnar block)
    instead of regenerating or re-reading the instance N times. A
    one-instance sweep is one job, so it runs in-process; the
    repetitions of a setting are different instances, so even a
    one-parameter budget sweep spreads over up to ``repetitions``
    chunks. Chunks are packed to a few per worker to balance load
    (chunked submission also amortizes pickling); a worker runs its
    chunk through :func:`_run_cells_serial`, so batch chunks split into
    per-instance blocks exactly like the serial path, and results are
    scattered back into submission order — identical to the serial
    path's ordering for any worker count.
    """
    groups = _group_by_instance(cell_args).values()
    size = _pool_size(workers, len(groups), timed)
    if size < 2:
        return _run_cells_serial(cell_args)
    chunk_size = max(1, -(-len(cell_args) // (size * 4)))
    chunks: list[list[int]] = []
    current: list[int] = []
    for group in groups:
        current.extend(group)
        if len(current) >= chunk_size:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    served = _pool_map(
        _run_cells_serial,
        [([cell_args[at] for at in chunk],) for chunk in chunks], size)
    cells: list[dict[str, tuple[float, float]]] = [None] * len(cell_args)
    for chunk, chunk_cells in zip(chunks, served):
        for at, cell in zip(chunk, chunk_cells):
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
    instances over one process pool (:func:`_run_cells`).
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

    The repetitions run in a process pool of one worker per usable CPU
    (``workers=None``, at most one per repetition; serial for the
    runtime-reporting ``solo`` and ``reference`` engines) or of
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
