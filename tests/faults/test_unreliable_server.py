"""Tests for the fault-injecting origin-server wrapper."""

import pytest

from repro.core import Epoch
from repro.faults import (
    PROBE_FAILED,
    FaultInjector,
    FaultSpec,
    Outage,
    UnreliableServer,
)
from repro.runtime import OriginServer
from repro.traces import UpdateEvent, UpdateTrace


def make_trace() -> UpdateTrace:
    return UpdateTrace(
        [UpdateEvent(3, 0, "a"), UpdateEvent(7, 0, "b"),
         UpdateEvent(5, 1, "x")],
        Epoch(20))


@pytest.fixture
def reliable() -> OriginServer:
    return OriginServer(make_trace())


class TestTransparency:
    def test_null_spec_is_transparent(self, reliable):
        wrapped = UnreliableServer(OriginServer(make_trace()))
        for chronon in (3, 5, 9, 12):
            reliable.advance_to(chronon)
            wrapped.advance_to(chronon)
            for resource_id in (0, 1, 2):
                outcome = wrapped.try_probe(resource_id)
                assert outcome.ok
                assert outcome.snapshot == reliable.probe(resource_id)

    def test_state_machine_delegates(self):
        wrapped = UnreliableServer(OriginServer(make_trace()))
        wrapped.advance_to(4)
        assert wrapped.clock == 4
        wrapped.publish(UpdateEvent(6, 5, "pub"))
        wrapped.advance_to(6)
        assert wrapped.version_of(5) == 1
        assert wrapped.try_probe(5).snapshot.value == "pub"


class TestFaultInjection:
    def test_outage_fails_probes(self):
        spec = FaultSpec(outages=(Outage(0, 0, 10),))
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(5)
        outcome = wrapped.try_probe(0)
        assert not outcome.ok
        assert outcome.fault == "outage"
        assert outcome.snapshot is None
        # Other resources are unaffected.
        assert wrapped.try_probe(1).ok
        # The outage ends.
        wrapped.advance_to(11)
        assert wrapped.try_probe(0).ok

    def test_a_failed_probe_has_no_snapshot(self, reliable):
        spec = FaultSpec(outages=(Outage(0, 0, None),))
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(5)
        reliable.advance_to(5)
        outcome = wrapped.try_probe(0)
        assert outcome.status == PROBE_FAILED and not outcome.ok
        assert outcome.snapshot is None
        # The resource that is up answers what the origin serves.
        assert wrapped.try_probe(1).snapshot == reliable.probe(1)

    def test_probe_failure_carries_context(self):
        spec = FaultSpec(outages=(Outage(0, 0, None),))
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(5)
        outcome = wrapped.try_probe(0, attempt=1)
        assert (outcome.resource_id, outcome.chronon, outcome.attempt,
                outcome.fault) == (0, 5, 1, "outage")

    def test_rate_limit_resets_each_chronon(self):
        spec = FaultSpec(max_probes_per_chronon=1)
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(4)
        assert wrapped.try_probe(0).ok
        assert wrapped.try_probe(1).status == "throttled"
        wrapped.advance_to(5)
        assert wrapped.try_probe(1).ok


class TestStaleReads:
    def test_stale_read_serves_lagged_state(self):
        spec = FaultSpec(stale_probability=1.0, stale_lag=2)
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(6)
        outcome = wrapped.try_probe(0)
        assert outcome.ok and outcome.stale
        # As of chronon 4 only the chronon-3 update had landed.
        assert outcome.snapshot.value == "a"
        assert outcome.snapshot.version == 1
        assert outcome.snapshot.updated_at == 3
        assert outcome.snapshot.probed_at == 6

    def test_stale_read_before_any_update(self):
        spec = FaultSpec(stale_probability=1.0, stale_lag=5)
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(4)
        outcome = wrapped.try_probe(0)
        assert outcome.ok and outcome.stale
        assert outcome.snapshot.version == 0
        assert outcome.snapshot.value == ""
        assert not outcome.snapshot.is_fresh

    def test_stale_lag_zero_is_current(self):
        spec = FaultSpec(stale_probability=1.0, stale_lag=0)
        wrapped = UnreliableServer(OriginServer(make_trace()), spec)
        wrapped.advance_to(7)
        outcome = wrapped.try_probe(0)
        assert outcome.snapshot.value == "b"


class TestDeterminismAndReplay:
    """Same spec, same run: re-running a spec is how a faulty run is
    replayed."""

    def run_outcomes(self, server: UnreliableServer):
        statuses = []
        for chronon in range(1, 15):
            server.advance_to(chronon)
            for resource_id in (0, 1, 2):
                statuses.append(server.try_probe(resource_id).status)
        return statuses

    def test_same_seed_same_outcomes(self):
        spec = FaultSpec(failure_probability=0.4, seed=13)
        one = self.run_outcomes(
            UnreliableServer(OriginServer(make_trace()), spec))
        two = self.run_outcomes(
            UnreliableServer(OriginServer(make_trace()), spec))
        assert one == two

    def test_a_spec_keeps_no_log(self):
        """A long-lived server over a spec records nothing; pass a
        recording injector to keep the decisions."""
        spec = FaultSpec(failure_probability=0.4, seed=21)
        quiet = UnreliableServer(OriginServer(make_trace()), spec)
        statuses = self.run_outcomes(quiet)
        assert quiet.injector.trace == []
        logged = UnreliableServer(OriginServer(make_trace()),
                                  FaultInjector(spec))
        assert self.run_outcomes(logged) == statuses
        assert [record.status for record in logged.injector.trace] \
            == statuses
