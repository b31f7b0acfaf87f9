"""AsyncMonitoringProxy: capture identity with the sync proxy,
reentrancy, the event stream, and hedged quarantine exits end-to-end."""

import asyncio

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    TInterval,
)
from repro.core.errors import FaultError
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultSpec
from repro.faults.server import UnreliableServer
from repro.online import MEDFPolicy, MRSFPolicy, SEDFPolicy
from repro.runtime import MonitoringProxy, OriginServer
from repro.runtime.aio import AsyncMonitoringProxy
from repro.traces import UpdateEvent, UpdateTrace

EPOCH = Epoch(12)


def _trace():
    return UpdateTrace(
        [UpdateEvent(2, 0, "a1"), UpdateEvent(5, 1, "b1"),
         UpdateEvent(7, 0, "a2"), UpdateEvent(9, 2, "c1")], EPOCH)


def _profiles():
    return [
        Profile([
            TInterval([ExecutionInterval(0, 1, 4),
                       ExecutionInterval(1, 4, 8)]),
            TInterval([ExecutionInterval(2, 6, 11)]),
        ], name="alpha"),
        Profile([
            TInterval([ExecutionInterval(0, 5, 9)]),
            TInterval([ExecutionInterval(1, 2, 6),
                       ExecutionInterval(2, 8, 12)]),
        ], name="beta"),
    ]


def _run_sync(policy, server):
    proxy = MonitoringProxy(server, EPOCH, BudgetVector(1), policy)
    client = proxy.register_client("c")
    for profile in _profiles():
        proxy.register_profile(client, profile)
    stats = proxy.run()
    return stats, list(client.mailbox), proxy.schedule


def _run_async(policy, server, **kwargs):
    proxy = AsyncMonitoringProxy(server, EPOCH, BudgetVector(1), policy,
                                 **kwargs)
    client = proxy.register_client("c")
    for profile in _profiles():
        proxy.register_profile(client, profile)
    stats = asyncio.run(proxy.arun())
    return stats, list(client.mailbox), proxy.schedule


class TestCaptureIdentity:
    def test_identical_to_sync_on_fault_free_schedule(self):
        for policy_cls in (SEDFPolicy, MRSFPolicy, MEDFPolicy):
            sync_stats, sync_notes, sync_schedule = _run_sync(
                policy_cls(), OriginServer(_trace()))
            async_stats, async_notes, async_schedule = _run_async(
                policy_cls(), OriginServer(_trace()))
            assert async_stats == sync_stats
            assert list(async_schedule.probes()) == \
                list(sync_schedule.probes())
            assert len(async_notes) == len(sync_notes)
            for sync_note, async_note in zip(sync_notes, async_notes):
                assert async_note.profile_id == sync_note.profile_id
                assert async_note.tinterval_id == sync_note.tinterval_id
                assert async_note.completed_at == sync_note.completed_at
                assert async_note.snapshots == sync_note.snapshots

    def test_identical_under_deadline_and_semaphores(self):
        sync_stats, sync_notes, _ = _run_sync(
            MRSFPolicy(), OriginServer(_trace()))
        async_stats, async_notes, _ = _run_async(
            MRSFPolicy(), OriginServer(_trace()),
            deadline=5.0, max_concurrency=1,
            retry=RetryConfig(max_retries=1),
            breaker=CircuitBreaker(), hedge_delay=0.01)
        assert async_stats == sync_stats
        assert len(async_notes) == len(sync_notes)

    def test_matches_sync_under_same_fault_schedule(self):
        # Deterministic faults draw from (seed, resource, chronon,
        # attempt) only, so sync and async proxies see identical
        # outcomes and must produce identical accounting.
        spec = FaultSpec(failure_probability=0.3, seed=7)
        sync_stats, sync_notes, _ = _run_sync(
            MRSFPolicy(), UnreliableServer(OriginServer(_trace()), spec))
        async_stats, async_notes, _ = _run_async(
            MRSFPolicy(), UnreliableServer(OriginServer(_trace()), spec),
            retry=RetryConfig(max_retries=1, base_delay=0.0))
        # The sync run has no retry config, so compare a retry-free
        # async run instead for exact equality.
        async_stats2, async_notes2, _ = _run_async(
            MRSFPolicy(), UnreliableServer(OriginServer(_trace()), spec))
        assert async_stats2 == sync_stats
        assert len(async_notes2) == len(sync_notes)
        # With retries enabled the async proxy can only do better.
        assert async_stats.completed >= sync_stats.completed


class TestConcurrencyLimit:
    def test_limit_validated(self):
        with pytest.raises(FaultError, match=">= 1"):
            AsyncMonitoringProxy(OriginServer(_trace()), EPOCH,
                                 BudgetVector(1), MRSFPolicy(),
                                 max_concurrency=0)


class TestEndOfEpoch:
    def _proxy(self):
        return AsyncMonitoringProxy(OriginServer(_trace()), EPOCH,
                                    BudgetVector(1), MRSFPolicy())

    def test_arun_until_past_the_epoch_is_refused_before_any_step(self):
        proxy = self._proxy()
        with pytest.raises(ModelError,
                           match=r"until=13: the epoch ends at 12"):
            asyncio.run(proxy.arun(until=13))
        assert proxy.clock == 0
        asyncio.run(proxy.arun(until=4))
        asyncio.run(proxy.arun(until=2))  # behind the clock: a no-op
        assert proxy.clock == 4

    def test_profile_registered_after_the_flush_expires_on_arrival(self):
        proxy = self._proxy()
        client = proxy.register_client("c")
        proxy.register_profile(client, _profiles()[0])
        before = asyncio.run(proxy.arun())
        proxy.register_profile(client, _profiles()[1])
        for stats in (proxy.stats(), asyncio.run(proxy.arun())):
            assert stats.pending == 0
            assert stats.registered == before.registered + 2
            assert stats.expired == before.expired + 2
            assert stats.registered == (stats.completed + stats.expired
                                        + stats.dropped)


class TestReentrancy:
    def test_concurrent_asteps_serialize(self):
        proxy = AsyncMonitoringProxy(
            OriginServer(_trace()), EPOCH, BudgetVector(1), MRSFPolicy())
        client = proxy.register_client("c")
        for profile in _profiles():
            proxy.register_profile(client, profile)

        async def drive():
            return await asyncio.gather(proxy.astep(), proxy.astep(),
                                        proxy.astep())

        chronons = asyncio.run(drive())
        assert sorted(chronons) == [1, 2, 3]
        assert proxy.clock == 3


class TestEventStream:
    def test_events_cover_lifecycle(self):
        proxy = AsyncMonitoringProxy(
            OriginServer(_trace()), EPOCH, BudgetVector(1), MRSFPolicy())
        queue = proxy.subscribe()
        client = proxy.register_client("c")
        for profile in _profiles():
            proxy.register_profile(client, profile)
        proxy.unregister_profile(1)
        asyncio.run(proxy.arun())

        kinds = []
        while not queue.empty():
            kinds.append(queue.get_nowait().kind)
        assert kinds.count("register") == 2
        assert kinds.count("unregister") == 1
        assert kinds.count("tick") == EPOCH.last
        assert kinds.count("notification") == proxy.stats().completed

    def test_unsubscribe_stops_delivery(self):
        proxy = AsyncMonitoringProxy(
            OriginServer(_trace()), EPOCH, BudgetVector(1), MRSFPolicy())
        queue = proxy.subscribe()
        proxy.unsubscribe(queue)
        proxy.register_client("c")
        proxy._emit("tick", {})
        assert queue.empty()
