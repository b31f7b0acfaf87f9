"""Property tests for the fault layer.

The load-bearing invariant: no matter what fault schedule the origin
server throws at the proxy — drops, outages, throttling, retries,
breaker quarantines — and no matter when profiles are registered or
unregistered, the flushed accounting always satisfies
``registered == completed + expired + dropped``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector, Profile, TInterval
from repro.faults import (
    CircuitBreaker,
    RetryConfig,
    UnreliableServer,
)
from repro.online import MEDFPolicy, MRSFPolicy, SEDFPolicy
from repro.runtime import MonitoringProxy, OriginServer
from repro.simulation import ChurnEvent
from repro.traces import UpdateTrace

from tests.properties.strategies import epoch, fault_specs, profile_sets

POLICIES = [SEDFPolicy, MRSFPolicy, MEDFPolicy]


def _bare_copy(profiles):
    return [Profile([TInterval(eta.eis) for eta in profile],
                    name=profile.name)
            for profile in profiles]


class TestFlushInvariantUnderFaults:
    @given(profiles=profile_sets(), spec=fault_specs(),
           policy_index=st.integers(0, 2), budget=st.integers(1, 3),
           use_retry=st.booleans(), use_breaker=st.booleans(),
           unregister_mask=st.integers(0, 7),
           unregister_at=st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_registered_equals_completed_expired_dropped(
            self, profiles, spec, policy_index, budget, use_retry,
            use_breaker, unregister_mask, unregister_at):
        server = UnreliableServer(
            OriginServer(UpdateTrace([], epoch())), spec)
        proxy = MonitoringProxy(
            server, epoch(), BudgetVector(budget),
            POLICIES[policy_index](),
            retry=RetryConfig(1) if use_retry else None,
            breaker=CircuitBreaker(failure_threshold=2, cooldown=3)
            if use_breaker else None)
        client = proxy.register_client()
        # Follow the run, unregistering a mask-selected subset of the
        # profiles (ids 0, 1, ... in registration order) mid-epoch.
        plan = [ChurnEvent.remove(unregister_at, profile_id)
                for profile_id in range(len(profiles))
                if unregister_mask & (1 << profile_id)]
        for _ in proxy.follow(client, _bare_copy(profiles), plan):
            proxy.step()
        stats = proxy.run()

        assert stats.registered == \
            stats.completed + stats.expired + stats.dropped
        assert stats.pending == 0
        # Notifications agree with completions, and the schedule only
        # holds successful probes.
        assert len(client.mailbox) == stats.completed
        assert stats.probes_used == len(proxy.schedule)

    @given(profiles=profile_sets(), spec=fault_specs(),
           policy_index=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_faulty_runs_are_reproducible(self, profiles, spec,
                                          policy_index):
        def run_once():
            server = UnreliableServer(
                OriginServer(UpdateTrace([], epoch())), spec)
            proxy = MonitoringProxy(server, epoch(), BudgetVector(1),
                                    POLICIES[policy_index](),
                                    retry=RetryConfig(1))
            client = proxy.register_client()
            for profile in _bare_copy(profiles):
                proxy.register_profile(client, profile)
            stats = proxy.run()
            return (stats, sorted(proxy.schedule.probes()))

        assert run_once() == run_once()
