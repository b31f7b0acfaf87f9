"""Deterministic chaos/soak harness for the async proxy service.

The async stack earns its keep only if its failure handling can be
*demonstrated*, reproducibly. This module scripts an entire adverse run
from a single seed — drop/timeout faults, scripted outages, slow-server
latency spikes that blow per-probe deadlines, and client churn
(registrations and cancellations landing mid-epoch) — drives the
:class:`~repro.runtime.aio.proxy.AsyncMonitoringProxy` through it, and
checks the service-level invariants:

* **exactly-once delivery** — every completed t-interval produced one
  notification, no t-interval produced two;
* **conservation** — ``registered == completed + expired + dropped``
  once the epoch flushes;
* **budget** — the executed schedule never exceeds any chronon's
  ``C_j``;
* **capture identity** — without slow servers, the async proxy's
  snapshots, notifications, and stats equal the synchronous
  :class:`~repro.runtime.proxy.MonitoringProxy`'s on the same instance,
  fault schedule, retry allowance, breaker and churn script: both spend
  their budget through the one retry cascade.

Runnable directly (the CI soak-smoke step)::

    python -m repro.runtime.aio.chaos --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.budget import BudgetVector
from repro.core.profile import Profile
from repro.core.timeline import Epoch
from repro.core.intervals import TInterval
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultSpec, Outage, keyed_draw
from repro.faults.server import UnreliableServer
from repro.online import MRSFPolicy
from repro.runtime.aio.journal import Journal
from repro.runtime.aio.proxy import AsyncMonitoringProxy
from repro.runtime.proxy import MonitoringProxy, ProxyStats
from repro.runtime.server import OriginServer
from repro.simulation.churn import ChurnEvent, ChurnPlan
from repro.traces.models import PoissonUpdateModel
from repro.workloads import GeneratorConfig, ProfileGenerator

__all__ = ["ChaosConfig", "SoakReport", "build_scenario", "run_soak",
           "main"]


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """One fully seeded chaos scenario.

    With ``failure_probability == timeout_probability == 0``, no
    outages, and ``slow_fraction == 0`` the scenario is fault-free; any
    scenario with ``slow_fraction == 0`` (no deadline can fire) gets the
    capture-identity check.
    """

    epoch_length: int = 80
    num_resources: int = 16
    num_profiles: int = 24
    budget: int = 2
    update_intensity: float = 12.0
    seed: int = 0
    # Fault schedule
    failure_probability: float = 0.0
    timeout_probability: float = 0.0
    outage_count: int = 0
    outage_length: int = 8
    slow_fraction: float = 0.0
    # Async knobs (seconds)
    deadline: float = 0.02
    slow_latency: float = 0.08
    hedge_delay: float = 0.005
    backoff_base: float = 0.0005
    max_retries: int = 1
    # Churn: fraction of profiles arriving mid-run / cancelled mid-run
    churn_fraction: float = 0.3
    cancel_fraction: float = 0.15

    @property
    def fault_free(self) -> bool:
        return (self.failure_probability == 0.0
                and self.timeout_probability == 0.0
                and self.outage_count == 0
                and self.slow_fraction == 0.0)


@dataclass(slots=True)
class SoakReport:
    """Outcome of one soak run."""

    stats: ProxyStats
    delivered: int
    distinct: int
    duplicates: int
    budget_respected: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        lines = [
            f"delivered={self.delivered} distinct={self.distinct} "
            f"duplicates={self.duplicates}",
            f"completed={self.stats.completed} "
            f"expired={self.stats.expired} "
            f"dropped={self.stats.dropped} "
            f"registered={self.stats.registered}",
            f"requests={self.stats.requests_sent} "
            f"failed={self.stats.probes_failed} "
            f"retries={self.stats.retries} "
            f"hedges={self.stats.hedges} "
            f"quarantined={self.stats.resources_quarantined}",
            f"budget_respected={self.budget_respected}",
        ]
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  - {violation}"
                         for violation in self.violations)
        else:
            lines.append("all invariants hold")
        return "\n".join(lines)


def _bare(profile: Profile) -> Profile:
    """Strip stamped identities so a profile can be re-registered."""
    return Profile([TInterval(eta.eis, need=eta.need) for eta in profile],
                   name=profile.name)


def _plan(config: ChaosConfig):
    """Build the ``(epoch, trace, initial profiles, churn plan)`` of a
    scenario from its seed.

    A profile arriving for chronon ``c`` is added while the clock reads
    ``c - 1``, and so is a cancel for ``c``, after the adds. Profile ids
    are registration order (the initial profiles, then the adds by
    chronon), so a cancel names its target by that order, and only one
    registered by then is cancelled.
    """
    epoch = Epoch(config.epoch_length)
    trace = PoissonUpdateModel(
        config.update_intensity, seed=config.seed).generate(
        range(config.num_resources), epoch)
    generated = ProfileGenerator(GeneratorConfig(
        num_profiles=config.num_profiles, max_rank=2,
        window=max(4, config.epoch_length // 8),
        seed=config.seed + 1)).generate(trace, epoch)
    profiles = [_bare(profile) for profile in generated]

    rng = random.Random(f"{config.seed}:churn")
    initial, adds = [], []
    for index, profile in enumerate(profiles):
        if index >= 1 and rng.random() < config.churn_fraction:
            arrival = rng.randrange(2, max(3, epoch.last - 4))
            adds.append(ChurnEvent.add(arrival - 1, profile))
        else:
            initial.append(profile)
    joined = sorted(event.chronon for event in adds)
    removes = []
    for order in range(len(profiles)):
        if rng.random() < config.cancel_fraction:
            clock = rng.randrange(3, epoch.last + 1) - 1
            if order < len(initial) + bisect_right(joined, clock):
                removes.append(ChurnEvent.remove(clock, order))
    return epoch, trace, initial, ChurnPlan(adds + removes)


def _make_server(config: ChaosConfig, epoch: Epoch, trace):
    """The origin server of a scenario (wrapped when faults are on)."""
    server = OriginServer(trace)
    if config.fault_free:
        return server
    rng = random.Random(f"{config.seed}:outage")
    outages = tuple(
        Outage(resource_id=rng.randrange(config.num_resources),
               start=(start := rng.randrange(1, epoch.last)),
               last=min(epoch.last, start + config.outage_length))
        for _ in range(config.outage_count)
    )
    spec = FaultSpec(
        failure_probability=config.failure_probability,
        timeout_probability=config.timeout_probability,
        outages=outages,
        seed=config.seed,
    )
    return UnreliableServer(server, spec)


def _latency_fn(config: ChaosConfig):
    """Deterministic slow-server spikes: a seeded coin per (resource,
    chronon) turns the probe's latency far past the deadline."""
    if config.slow_fraction <= 0.0:
        return None

    def latency(resource_id: int, chronon: int, attempt: int) -> float:
        if (keyed_draw(config.seed, "slow", resource_id, chronon, attempt)
                < config.slow_fraction):
            return config.slow_latency
        return 0.0

    return latency


def build_scenario(config: ChaosConfig, journal_path=None):
    """Instantiate one scenario: ``(epoch, initial, plan, proxy)``.

    Shared by :func:`run_soak` and the runtime benchmark, so both
    measure exactly the proxy configuration the invariants are proven
    on.
    """
    epoch, trace, initial, plan = _plan(config)
    server = _make_server(config, epoch, trace)
    journal = Journal(journal_path) if journal_path is not None else None
    proxy = AsyncMonitoringProxy(
        server, epoch, BudgetVector(config.budget), MRSFPolicy(),
        retry=RetryConfig(max_retries=config.max_retries,
                          base_delay=config.backoff_base,
                          max_delay=max(config.backoff_base * 8,
                                        config.backoff_base),
                          seed=config.seed),
        breaker=CircuitBreaker(failure_threshold=3, cooldown=4),
        deadline=config.deadline,
        hedge_delay=config.hedge_delay,
        latency=_latency_fn(config),
        journal=journal,
    )
    return epoch, initial, plan, proxy


async def run_soak(config: ChaosConfig,
                   journal_path=None) -> SoakReport:
    """Run one scripted chaos scenario and check every invariant."""
    epoch, initial, plan, proxy = build_scenario(config, journal_path)
    journal = proxy.journal
    client = proxy.register_client("soak")
    # The churn script of the synchronous run in _identity_violations.
    for _ in proxy.follow(client, initial, plan):
        await proxy.astep()
    stats = await proxy.arun()
    if journal is not None:
        journal.close()

    delivered = list(client.mailbox)
    keys = [(n.profile_id, n.tinterval_id) for n in delivered]
    distinct = len(set(keys))
    duplicates = len(keys) - distinct
    budget_ok = proxy.schedule.respects_budget(
        BudgetVector(config.budget), epoch)

    violations: list[str] = []
    if duplicates:
        violations.append(f"{duplicates} duplicate notifications")
    if distinct != stats.completed:
        violations.append(
            f"lost notifications: {stats.completed} completions but "
            f"{distinct} distinct deliveries")
    if stats.registered != (stats.completed + stats.expired
                            + stats.dropped):
        violations.append(
            f"conservation broken: {stats.registered} != "
            f"{stats.completed} + {stats.expired} + {stats.dropped}")
    if not budget_ok:
        violations.append("schedule exceeds the per-chronon budget")

    if config.slow_fraction == 0.0:
        violations.extend(_identity_violations(config, stats, delivered,
                                               proxy.retry))

    return SoakReport(stats=stats, delivered=len(delivered),
                      distinct=distinct, duplicates=duplicates,
                      budget_respected=budget_ok,
                      violations=violations)


def _identity_violations(config: ChaosConfig, async_stats: ProxyStats,
                         async_delivered, retry: RetryConfig) -> list[str]:
    """Compare an async run without slow servers against the
    synchronous proxy over the same faults, the async proxy's own
    ``retry`` and a breaker like its."""
    epoch, trace, initial, plan = _plan(config)
    proxy = MonitoringProxy(_make_server(config, epoch, trace), epoch,
                            BudgetVector(config.budget), MRSFPolicy(),
                            retry=retry,
                            breaker=CircuitBreaker(3, 4))
    client = proxy.register_client("soak")
    for _ in proxy.follow(client, initial, plan):
        proxy.step()
    sync_stats = proxy.run()

    violations: list[str] = []
    if sync_stats != async_stats:
        violations.append(
            f"stats diverge from the synchronous proxy: "
            f"sync={sync_stats} async={async_stats}")
    sync_delivered = list(client.mailbox)
    if len(sync_delivered) != len(async_delivered):
        violations.append(
            f"notification counts diverge: sync "
            f"{len(sync_delivered)} vs async {len(async_delivered)}")
        return violations
    for sync_note, async_note in zip(sync_delivered, async_delivered):
        if (sync_note.profile_id, sync_note.tinterval_id,
                sync_note.completed_at, sync_note.snapshots) != \
                (async_note.profile_id, async_note.tinterval_id,
                 async_note.completed_at, async_note.snapshots):
            violations.append(
                f"notification diverges: sync={sync_note} "
                f"async={async_note}")
            break
    return violations


# ---------------------------------------------------------------------
# Scenario lineup
# ---------------------------------------------------------------------

def smoke_scenarios(seed: int = 0) -> dict[str, ChaosConfig]:
    """The short deterministic lineup CI soaks on every push."""
    return {
        "fault-free-identity": ChaosConfig(seed=seed),
        "drop-timeout-storm": ChaosConfig(
            seed=seed, failure_probability=0.25,
            timeout_probability=0.1, max_retries=2),
        "outages-and-slow-servers": ChaosConfig(
            seed=seed, outage_count=4, slow_fraction=0.15,
            failure_probability=0.05),
    }


def soak_scenarios(seed: int = 0) -> dict[str, ChaosConfig]:
    """The longer lineup for local soaking."""
    lineup = {}
    for name, config in smoke_scenarios(seed).items():
        lineup[name] = ChaosConfig(**{
            **_config_dict(config),
            "epoch_length": 200,
            "num_profiles": 60,
            "num_resources": 32,
        })
    return lineup


def _config_dict(config: ChaosConfig) -> dict:
    return {name: getattr(config, name)
            for name in ChaosConfig.__dataclass_fields__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.aio.chaos",
        description="Deterministic chaos soak of the async proxy.")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI lineup instead of the full soak")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    lineup = smoke_scenarios(args.seed) if args.smoke \
        else soak_scenarios(args.seed)
    failures = 0
    for name, config in lineup.items():
        report = asyncio.run(run_soak(config))
        print(f"== {name} ==")
        print(report.describe())
        print()
        if not report.ok:
            failures += 1
    if failures:
        print(f"{failures}/{len(lineup)} scenarios violated invariants")
        return 1
    print(f"all {len(lineup)} scenarios clean")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
