"""Client-churn experiments over a churn plan.

The paper's evaluation registers all profiles up front; real proxies see
clients come and go. This experiment plays a churn scenario — clients
joining over the epoch (and optionally leaving at the three-quarter
mark) — and measures how arrival spread affects delivered completeness
and cross-client fairness.

The client scenario is one :class:`~repro.simulation.churn.ChurnPlan`,
which two engines play (``ChurnConfig.engine``), named as everywhere
else:

* ``"batch"`` (default) — :func:`~repro.simulation.churn.run_churned`:
  the plan is lowered to per-t-interval lifetimes and run as one lane
  of the columnar block kernel (what the columns cannot encode —
  RANDOM, say — is refused).
* ``"reference"`` — the live
  :class:`~repro.runtime.proxy.MonitoringProxy` following the plan
  (:meth:`~repro.runtime.proxy.MonitoringProxy.follow`), registering
  and cancelling as clients come and go: the executable specification
  of the client-facing semantics, and the referee of the columns.

All client profiles are generated up front: each client draws from its
own seeded stream (independent of join timing) and one ``build_columns``
serves all the draws, so the engines consume byte-identical workloads.
The scenario stays those columns all the way — a column-born initial
:class:`~repro.core.profile.ProfileSet` and a column-born plan; only the
live proxy, which registers objects, has them built.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.errors import WorkloadError
from repro.core.profile import ProfileColumns, ProfileSet
from repro.core.timeline import Epoch
from repro.experiments.harness import _pool_map, _pool_size
from repro.online.registry import parse_policy_spec
from repro.runtime.server import OriginServer
from repro.simulation.churn import ChurnPlan, PlanColumns, run_churned
from repro.traces.models import PoissonUpdateModel
from repro.workloads.generator import draw_profiles
from repro.workloads.restrictions import WindowRestriction
from repro.workloads.templates import AuctionWatchTemplate
from repro.workloads.zipf import BoundedZipf

__all__ = ["ChurnConfig", "ClientOutcome", "ChurnResult", "ChurnSweep",
           "ChurnSweepRow", "build_churn_workload", "run_churn",
           "churn_sweep", "jain_index"]

#: Engines accepted by :attr:`ChurnConfig.engine`.
CHURN_ENGINES = ("batch", "reference")


def jain_index(values: list[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``; 1.0 = perfectly fair.

    Defined as 1.0 for empty input or all-zero values (no allocation to
    be unfair about).
    """
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Knobs of the churn experiment.

    Attributes
    ----------
    epoch_length, num_resources, intensity:
        Trace shape (Poisson updates).
    num_clients:
        Number of clients.
    profiles_per_client:
        AuctionWatch profiles each client registers on arrival.
    join_spread:
        Fraction of the epoch over which clients arrive, uniformly.
        0.0 = everyone at the start (the paper's static setting);
        0.8 = arrivals throughout the first 80% of the epoch.
    leave_probability:
        Chance that a client unregisters all profiles at the three-
        quarter mark (simulating churn out).
    policy:
        Policy spec, e.g. ``"MRSF(P)"``.
    budget, max_rank, window, seed:
        As in the main experiments.
    engine:
        ``"batch"`` (the plan as columns, default) or ``"reference"``
        (the live proxy).
    """

    epoch_length: int = 400
    num_resources: int = 80
    intensity: float = 10.0
    num_clients: int = 8
    profiles_per_client: int = 10
    join_spread: float = 0.0
    leave_probability: float = 0.0
    policy: str = "MRSF(P)"
    budget: int = 1
    max_rank: int = 3
    window: int = 10
    seed: int = 4242
    engine: str = "batch"

    def __post_init__(self) -> None:
        if not 0.0 <= self.join_spread <= 1.0:
            raise WorkloadError(
                f"join_spread must be in [0, 1], got {self.join_spread}")
        if not 0.0 <= self.leave_probability <= 1.0:
            raise WorkloadError(
                f"leave_probability must be in [0, 1], got "
                f"{self.leave_probability}")
        for name, floor in (("num_clients", 1), ("num_resources", 1),
                            ("profiles_per_client", 0), ("max_rank", 1),
                            ("window", 0), ("epoch_length", 1),
                            ("budget", 0)):
            if getattr(self, name) < floor:
                raise WorkloadError(f"{name} must be >= {floor}, got "
                                    f"{getattr(self, name)}")
        if self.engine not in CHURN_ENGINES:
            raise WorkloadError(
                f"engine must be one of {CHURN_ENGINES}, "
                f"got {self.engine!r}")


@dataclass(frozen=True, slots=True)
class ClientOutcome:
    """Per-client accounting."""

    name: str
    joined_at: int
    left_at: int | None
    registered: int
    notified: int

    @property
    def completeness(self) -> float:
        """Notifications per registered t-interval (1.0 when none)."""
        if self.registered == 0:
            return 1.0
        return self.notified / self.registered


@dataclass(frozen=True, slots=True)
class ChurnResult:
    """Outcome of one churn run."""

    clients: tuple[ClientOutcome, ...]
    completed: int
    expired: int
    dropped: int
    probes_used: int
    engine: str = "batch"
    #: t-intervals that arrived with a deadline already missed — lost to
    #: late registration, not to the policy or the budget.
    doomed_at_birth: int = 0

    @property
    def overall_completeness(self) -> float:
        resolved = self.completed + self.expired
        if resolved == 0:
            return 1.0
        return self.completed / resolved

    @property
    def fairness(self) -> float:
        """Jain index over per-client completeness."""
        return jain_index([client.completeness
                           for client in self.clients])

    @property
    def mean_client_completeness(self) -> float:
        return statistics.fmean(client.completeness
                                for client in self.clients)


def _workload(config: ChurnConfig):
    """The churn scenario of ``config`` (pure function); client ``i``
    owns profiles ``offsets[i]:offsets[i+1]`` of the one ``columns``."""
    rng = np.random.default_rng(config.seed)
    epoch = Epoch(config.epoch_length)
    trace = PoissonUpdateModel(config.intensity,
                               seed=config.seed).generate(
        range(config.num_resources), epoch)

    # Arrival plan: chronon each client joins (0 = before the run).
    # Sorted, so client index order is also join-chronon order.
    horizon = int(config.join_spread * config.epoch_length)
    joins = sorted(int(rng.integers(0, horizon + 1))
                   for _ in range(config.num_clients))
    leave_at = (3 * config.epoch_length) // 4
    leavers = [bool(rng.random() < config.leave_probability)
               for _ in range(config.num_clients)]

    names = [f"client-{index}" for index in range(config.num_clients)]
    # Each client draws from its own stream, independent of join timing;
    # the Zipf tables depend on (theta, size) only, so all share them.
    tables = (BoundedZipf(0.0, config.max_rank),
              BoundedZipf(0.0, config.num_resources))
    draws = [draw_profiles(np.random.default_rng(config.seed + 101 * (i + 1)),
                           config.profiles_per_client, *tables)
             for i in range(config.num_clients)]
    labels = [f"{name}/AuctionWatch({rank})#{profile}"
              for name, (ranks, _) in zip(names, draws)
              for profile, rank in enumerate(ranks.tolist())]
    # The universe is 0..n-1 in order: a position is its resource id.
    columns = AuctionWatchTemplate(
        WindowRestriction(config.window), grouping="overlap").build_columns(
            *map(np.concatenate, zip(*draws)), labels, trace, epoch)
    # A profile without t-intervals owns no row. The live proxies and
    # lower_plan would register one under the next id, with nothing to
    # monitor; the scenario leaves them out, which only renumbers the
    # others (and keeps the profile ids every recorded run keys on).
    kept = np.bincount(columns.ei_profile, minlength=len(labels)) > 0
    sizes = kept.reshape(len(names), config.profiles_per_client).sum(axis=1)
    columns = columns._replace(
        names=tuple(compress(labels, kept.tolist())),
        ei_profile=(np.cumsum(kept) - 1)[columns.ei_profile])
    return (epoch, trace, joins, leave_at, leavers, names, columns,
            [0] + np.cumsum(sizes).tolist())


def run_churn(config: ChurnConfig) -> ChurnResult:
    """Execute one churn scenario end to end: the client plan as a
    :class:`ChurnPlan`, run as columns or followed by the live proxy."""
    (epoch, trace, joins, leave_at, leavers, names,
     columns, offsets) = _workload(config)
    initial, plan, left_marks = _engine_plan(
        epoch, joins, leave_at, leavers, columns, offsets)
    policy, preemptive = parse_policy_spec(config.policy)
    budget = BudgetVector(config.budget)
    if config.engine == "reference":
        from repro.runtime.proxy import MonitoringProxy

        proxy = MonitoringProxy(OriginServer(trace), epoch, budget, policy,
                                preemptive=preemptive)
        client = proxy.register_client()
        for _ in proxy.follow(client, initial, plan):
            proxy.step()
        stats = proxy.run()
        captured = np.bincount(
            [note.profile_id for note in client.mailbox],
            minlength=offsets[-1]).tolist()
        totals = (stats.completed, stats.expired, stats.dropped,
                  stats.probes_used, _doomed_at_birth(plan, epoch))
    else:
        result = run_churned(initial, epoch, budget, policy, plan=plan,
                             preemptive=preemptive)
        per_profile = result.report.per_profile
        captured = [per_profile[profile_id][0]
                    for profile_id in range(offsets[-1])]
        totals = (result.report.captured, result.expired,
                  int(result.extras.get("dropped", 0.0)),
                  result.probes_used,
                  int(result.extras.get("doomed_at_birth", 0.0)))

    # A client's t-intervals: the heads between its two offsets.
    counts = np.diff(np.searchsorted(
        columns.ei_profile[columns.tinterval_heads()], offsets)).tolist()
    outcomes = tuple(
        ClientOutcome(name=names[index], joined_at=joins[index],
                      left_at=left_marks[index], registered=counts[index],
                      notified=sum(captured[offsets[index]:
                                            offsets[index + 1]]))
        for index in range(config.num_clients))
    completed, expired, dropped, probes_used, doomed = totals
    return ChurnResult(clients=outcomes, completed=completed,
                       expired=expired, dropped=dropped,
                       probes_used=probes_used, engine=config.engine,
                       doomed_at_birth=doomed)


def _doomed_at_birth(plan: ChurnPlan, epoch: Epoch) -> int:
    """The added t-intervals that arrive with more deadlines past than
    they may miss (``size - need``): ``run_churned``'s count, for the
    live proxy, which books them as expired without saying why."""
    return sum(
        sum(ei.finish < min(event.chronon + 1, epoch.last) for ei in eta)
        > eta.size - eta.need
        for event in plan if event.action == "add" for eta in event.profile)


def build_churn_workload(config: ChurnConfig) \
        -> tuple[ProfileSet, ChurnPlan, Epoch]:
    """The engine-path workload of ``config``: initial set + plan.

    Benchmarks use this to generate the (expensive, engine-independent)
    instance once and time only the engine runs. Both are column-born,
    two slices of one ``build_columns`` over every client's draws:
    nothing builds a profile or an event until something reads one.
    """
    (epoch, _trace, joins, leave_at, leavers, _names,
     columns, offsets) = _workload(config)
    initial, plan, _marks = _engine_plan(
        epoch, joins, leave_at, leavers, columns, offsets)
    return initial, plan, epoch


def _slice(columns: ProfileColumns, lo: int, hi: int) -> ProfileColumns:
    """Profiles ``lo..hi-1`` of ``columns`` (one run of rows), from 0."""
    first, last = np.searchsorted(columns.ei_profile, (lo, hi)).tolist()
    return ProfileColumns(columns.names[lo:hi],
                          columns.ei_profile[first:last] - lo,
                          *(column[first:last] for column in columns[2:]))


def _engine_plan(epoch: Epoch, joins: list[int], leave_at: int,
                 leavers: list[bool], columns: ProfileColumns,
                 offsets: list[int]):
    """Lower the client scenario to (initial set, churn plan).

    Profile ids are predicted: the initial set takes 0..n-1 in
    registration order, churn adds continue sequentially in plan
    (= application) order — exactly the engine's assignment rule.
    ``joins`` is sorted, so the clients there from the start come first
    and client order is id order throughout.
    """
    sizes = np.diff(offsets)
    early = joins.count(0)
    # Adds in client order are in ascending-chronon (= id assignment)
    # order automatically.
    added = _slice(columns, offsets[early], offsets[-1])
    # Cancellations come after the adds: at the leave chronon the
    # proxy registers joiners first, then processes leavers — same-
    # chronon plan order reproduces that. A leaver that joins *after*
    # leave_at keeps its mark but nothing to unregister (the reference
    # proxy's behaviour, preserved verbatim).
    left_marks = [leave_at if leaving and leave_at >= epoch.first else None
                  for leaving in leavers]
    removed = np.flatnonzero(np.repeat(
        [mark is not None and join <= leave_at
         for mark, join in zip(left_marks, joins)], sizes))
    plan = PlanColumns(
        added,
        np.repeat([True, False], [len(added.names), removed.size]),
        np.concatenate((np.repeat(np.array(joins[early:], dtype=np.int64),
                                  sizes[early:]),
                        np.full(removed.size, leave_at))),
        np.concatenate((np.arange(len(added.names)), removed)))
    return (ProfileSet.from_columns(_slice(columns, 0, offsets[early])),
            ChurnPlan.from_columns(plan), left_marks)


# ----------------------------------------------------------------------
# The churn sweep experiment (CLI: repro-experiments churn)
# ----------------------------------------------------------------------

#: Join spreads swept (leave_probability 0), plus one churn-out row.
SWEEP_SPREADS: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)

#: Per-scale baseline churn configs, mirroring ``config.SCALES``.
CHURN_SCALES: dict[str, ChurnConfig] = {
    "paper": ChurnConfig(epoch_length=500, num_resources=100,
                         num_clients=16, profiles_per_client=12,
                         budget=2),
    "default": ChurnConfig(),
    "smoke": ChurnConfig(epoch_length=80, num_resources=16,
                         intensity=8.0, num_clients=3,
                         profiles_per_client=3, window=6),
}


@dataclass(frozen=True, slots=True)
class ChurnSweepRow:
    """One churn scenario's aggregate outcome."""

    join_spread: float
    leave_probability: float
    completeness: float
    mean_client_completeness: float
    fairness: float
    completed: int
    expired: int
    dropped: int
    probes_used: int
    runtime_seconds: float
    doomed_at_birth: int = 0


@dataclass(frozen=True)
class ChurnSweep:
    """The churn experiment: one row per swept scenario."""

    config: ChurnConfig
    policy: str
    engine: str
    rows: tuple[ChurnSweepRow, ...]


def _timed_churn(config: ChurnConfig) -> tuple[ChurnResult, float]:
    started = time.perf_counter()
    result = run_churn(config)
    return result, time.perf_counter() - started


def churn_sweep(scale: str = "default",
                workers: int | None = None,
                engine: str = "batch") -> ChurnSweep:
    """Completeness/fairness vs. arrival spread, plus a churn-out row.

    Sweeps ``join_spread`` over :data:`SWEEP_SPREADS` with no leavers,
    then adds one scenario with late arrivals *and* 50% churn-out.
    ``workers=N`` (N > 1) fans scenarios over a process pool (results
    identical to serial — each scenario is an independent seeded run);
    ``None`` is serial, since each row reports its own runtime.
    A churned run is one lane whatever the harness would share, so
    ``"solo"`` is ``"batch"`` here.
    """
    base = replace(CHURN_SCALES[scale],
                   engine="batch" if engine == "solo" else engine)
    configs = [replace(base, join_spread=spread)
               for spread in SWEEP_SPREADS]
    configs.append(replace(base, join_spread=0.6, leave_probability=0.5))

    size = _pool_size(workers, len(configs), timed=True)
    outcomes = _pool_map(_timed_churn, [(config,) for config in configs],
                         size)

    rows = tuple(
        ChurnSweepRow(
            join_spread=config.join_spread,
            leave_probability=config.leave_probability,
            completeness=result.overall_completeness,
            mean_client_completeness=result.mean_client_completeness,
            fairness=result.fairness,
            completed=result.completed,
            expired=result.expired,
            dropped=result.dropped,
            probes_used=result.probes_used,
            runtime_seconds=seconds,
            doomed_at_birth=result.doomed_at_birth,
        )
        for config, (result, seconds) in zip(configs, outcomes)
    )
    return ChurnSweep(config=base, policy=base.policy,
                      engine=engine, rows=rows)
