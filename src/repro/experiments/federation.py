"""Federation experiment: GC and throughput vs. proxy shard count.

Runs the same instances as one lane of the block kernel
(:func:`~repro.simulation.batch.run_block` — the monolith: the same
chronon loop with its own select step) and through
:func:`~repro.simulation.shard.federated_run` at several shard counts,
reporting per shard count:

* mean gained completeness and its *degradation* vs. the monolith —
  zero by construction, since the coordinator's merge of per-shard
  proposals reproduces the monolith selection exactly (the experiment
  measures it anyway: an accounting regression would surface here);
* mean wall-clock runtime and the throughput ratio vs. the monolith —
  K against one lane over the same lowering, so the ratio is what the
  propose/merge protocol costs;
* per-shard load (owned resources, routed probes) and the budget
  work-stealing totals from the coordinator ledgers.

The federation benchmark (``benchmarks/bench_federation.py``) drives
the same comparison at catalog scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.config import ExperimentConfig, baseline
from repro.experiments.harness import PolicyOutcome, make_instance
from repro.online.registry import parse_policy_spec
from repro.runtime.sharding import ShardLoad
from repro.simulation.batch import run_block
from repro.simulation.columnar import ColumnarInstance
from repro.simulation.shard import federated_run

__all__ = [
    "DEFAULT_SHARD_COUNTS",
    "FederationSweep",
    "ShardCountOutcome",
    "federation_sweep",
]

DEFAULT_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True)
class ShardCountOutcome:
    """Aggregated federated runs at one shard count."""

    shards: int
    gc_values: tuple[float, ...]
    runtime_values: tuple[float, ...]
    loads: tuple[ShardLoad, ...]
    stolen_budget: int
    steal_transfers: int

    @property
    def mean_gc(self) -> float:
        return sum(self.gc_values) / len(self.gc_values)

    @property
    def mean_runtime(self) -> float:
        return sum(self.runtime_values) / len(self.runtime_values)

    @property
    def probes_routed(self) -> int:
        return sum(load.probes_routed for load in self.loads)


@dataclass(frozen=True)
class FederationSweep:
    """Monolith baseline plus one :class:`ShardCountOutcome` per K."""

    config: ExperimentConfig
    policy: str
    monolith: PolicyOutcome
    outcomes: tuple[ShardCountOutcome, ...]
    #: Per-repetition cost of constructing the shared columnar lowering,
    #: which no runtime column includes (every run gets the prebuilt
    #: form and builds only its activity windows).
    lower_values: tuple[float, ...]

    @property
    def mean_lower(self) -> float:
        return sum(self.lower_values) / len(self.lower_values)

    @property
    def shard_counts(self) -> tuple[int, ...]:
        return tuple(outcome.shards for outcome in self.outcomes)

    def outcome(self, shards: int) -> ShardCountOutcome:
        for candidate in self.outcomes:
            if candidate.shards == shards:
                return candidate
        raise KeyError(f"no outcome for {shards} shards")

    def degradation(self, shards: int) -> float:
        """Monolith mean GC minus the federated mean GC (0.0: exact)."""
        return self.monolith.mean_gc - self.outcome(shards).mean_gc

    def speedup(self, shards: int) -> float:
        """Monolith mean runtime over the federated mean runtime."""
        return self.monolith.mean_runtime / self.outcome(shards).mean_runtime


def _merge_loads(totals: dict[int, ShardLoad],
                 loads: Sequence[ShardLoad]) -> None:
    for load in loads:
        at = totals.get(load.shard)
        if at is None:
            totals[load.shard] = ShardLoad(
                shard=load.shard, resources=load.resources,
                probes_routed=load.probes_routed,
                nominal_budget=load.nominal_budget,
                stolen_in=load.stolen_in, stolen_out=load.stolen_out)
        else:
            at.resources = max(at.resources, load.resources)
            at.probes_routed += load.probes_routed
            at.nominal_budget += load.nominal_budget
            at.stolen_in += load.stolen_in
            at.stolen_out += load.stolen_out


def federation_sweep(scale: str = "smoke",
                     shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
                     policy: str = "M-EDF(P)",
                     source: str = "poisson",
                     config: ExperimentConfig | None = None,
                     ) -> FederationSweep:
    """GC and runtime vs. shard count against the one-lane block.

    All shard counts and the monolith share each repetition's generated
    instance and its columnar lowering, so the comparison isolates the
    federation overhead (a lowering small enough to keep its one
    activity window builds it inside the first run on it, the
    monolith's). ``config`` overrides the baseline config of ``scale``
    (benchmarks sweep custom sizes).
    """
    if config is None:
        config = baseline(scale)
    mono_gc: list[float] = []
    mono_runtime: list[float] = []
    lower_values: list[float] = []
    gc_values: dict[int, list[float]] = {k: [] for k in shard_counts}
    runtimes: dict[int, list[float]] = {k: [] for k in shard_counts}
    load_totals: dict[int, dict[int, ShardLoad]] = \
        {k: {} for k in shard_counts}
    stolen: dict[int, int] = {k: 0 for k in shard_counts}
    transfers: dict[int, int] = {k: 0 for k in shard_counts}
    label = None
    for repetition in range(config.repetitions):
        _trace, profiles = make_instance(config, repetition,
                                         source=source)
        col = ColumnarInstance.build(profiles, config.epoch)
        lower_values.append(col.lower_seconds)
        policy_obj, preemptive = parse_policy_spec(policy)
        (result,) = run_block(
            profiles, config.epoch,
            [(policy_obj, preemptive, config.budget_vector)], columnar=col)
        label = result.label
        mono_gc.append(result.gc)
        mono_runtime.append(result.runtime_seconds)
        for shards in shard_counts:
            policy_obj, preemptive = parse_policy_spec(policy)
            fed = federated_run(
                profiles, config.epoch, config.budget_vector,
                policy_obj, preemptive=preemptive, shards=shards,
                columnar=col)
            gc_values[shards].append(fed.result.gc)
            runtimes[shards].append(fed.result.runtime_seconds)
            _merge_loads(load_totals[shards], fed.loads)
            stolen[shards] += fed.stolen_budget
            transfers[shards] += fed.steal_transfers
    monolith = PolicyOutcome(label=label, gc_values=tuple(mono_gc),
                             runtime_values=tuple(mono_runtime))
    outcomes = tuple(
        ShardCountOutcome(
            shards=shards,
            gc_values=tuple(gc_values[shards]),
            runtime_values=tuple(runtimes[shards]),
            loads=tuple(load_totals[shards][shard]
                        for shard in sorted(load_totals[shards])),
            stolen_budget=stolen[shards],
            steal_transfers=transfers[shards])
        for shards in shard_counts)
    return FederationSweep(config=config, policy=policy,
                           monolith=monolith, outcomes=outcomes,
                           lower_values=tuple(lower_values))
