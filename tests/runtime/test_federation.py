"""Tests for multi-server federation."""

import numpy as np
import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    TInterval,
)
from repro.faults import FaultSpec, UnreliableServer
from repro.online import MRSFPolicy
from repro.runtime import (
    MonitoringProxy,
    OriginServer,
    ServerFleet,
    ShardCoordinator,
)
from repro.traces import UpdateEvent, UpdateTrace


@pytest.fixture
def fleet() -> ServerFleet:
    epoch = Epoch(20)
    nyse = OriginServer(UpdateTrace(
        [UpdateEvent(3, 0, "nyse:100"), UpdateEvent(8, 1, "nyse:101")],
        epoch))
    lse = OriginServer(UpdateTrace(
        [UpdateEvent(4, 2, "lse:99")], epoch))
    return ServerFleet({
        "nyse": (nyse, [0, 1]),
        "lse": (lse, [2]),
    })


class TestRouting:
    def test_owner_lookup(self, fleet):
        assert fleet.owner_of(0) == "nyse"
        assert fleet.owner_of(2) == "lse"

    def test_unassigned_resource_rejected(self, fleet):
        with pytest.raises(ModelError, match="not assigned"):
            fleet.owner_of(9)

    def test_duplicate_assignment_rejected(self):
        server = OriginServer()
        with pytest.raises(ModelError, match="assigned to both"):
            ServerFleet({"a": (server, [0]), "b": (OriginServer(), [0])})

    def test_duplicate_assignment_names_both_servers(self):
        with pytest.raises(ModelError,
                           match=r"resource 7 assigned to both 'nyse' "
                                 r"and 'lse'"):
            ServerFleet({"nyse": (OriginServer(), [7]),
                         "lse": (OriginServer(), [7])})

    def test_repeated_resource_within_one_server_rejected(self):
        with pytest.raises(ModelError,
                           match=r"resource 3 listed twice for server "
                                 r"'nyse'"):
            ServerFleet({"nyse": (OriginServer(), [2, 3, 3])})

    def test_probe_routes_to_owner(self, fleet):
        fleet.advance_to(10)
        assert fleet.probe(0).value == "nyse:100"
        assert fleet.probe(2).value == "lse:99"

    def test_probe_counts_per_server(self, fleet):
        fleet.advance_to(10)
        fleet.probe(0)
        fleet.probe(1)
        fleet.probe(2)
        assert fleet.probes_routed() == {"nyse": 2, "lse": 1}

    def test_server_access(self, fleet):
        assert fleet.server("nyse").clock == 0
        with pytest.raises(ModelError, match="unknown server"):
            fleet.server("tse")

    def test_server_names(self, fleet):
        assert fleet.server_names() == ["lse", "nyse"]


class TestClock:
    def test_advance_moves_all_members(self, fleet):
        fleet.advance_to(7)
        assert fleet.server("nyse").clock == 7
        assert fleet.server("lse").clock == 7
        assert fleet.clock == 7

    def test_advance_returns_merged_events(self, fleet):
        events = fleet.advance_to(5)
        assert [(e.chronon, e.resource_id) for e in events] == [
            (3, 0), (4, 2)]

    def test_empty_fleet_clock(self):
        assert ServerFleet({}).clock == 0


class TestProbeAccounting:
    """Routed vs. answered load (satellite: breaker-short-circuited and
    failed probes count as routed, not answered)."""

    @pytest.fixture
    def flaky_fleet(self) -> ServerFleet:
        epoch = Epoch(20)
        good = OriginServer(UpdateTrace(
            [UpdateEvent(3, 0, "ok:1")], epoch))
        dead = UnreliableServer(
            OriginServer(UpdateTrace([UpdateEvent(4, 1, "dead:1")],
                                     epoch)),
            FaultSpec(failure_probability=1.0, seed=5))
        return ServerFleet({"good": (good, [0]), "dead": (dead, [1])})

    def test_failed_try_probe_routed_but_not_answered(self, flaky_fleet):
        flaky_fleet.advance_to(10)
        assert not flaky_fleet.try_probe(1).ok
        flaky_fleet.try_probe(0)
        assert flaky_fleet.probes_routed() == {"good": 1, "dead": 1}
        assert flaky_fleet.probes_answered() == {"good": 1, "dead": 0}

    def test_successful_probe_counts_in_both(self, fleet):
        fleet.advance_to(10)
        fleet.probe(0)
        fleet.probe(2)
        assert fleet.probes_routed() == {"nyse": 1, "lse": 1}
        assert fleet.probes_answered() == {"nyse": 1, "lse": 1}


class TestMergedAdvance:
    def test_interleaved_events_come_back_sorted(self):
        epoch = Epoch(30)
        a = OriginServer(UpdateTrace(
            [UpdateEvent(2, 0, "a"), UpdateEvent(9, 1, "a")], epoch))
        b = OriginServer(UpdateTrace(
            [UpdateEvent(5, 2, "b"), UpdateEvent(9, 3, "b")], epoch))
        fleet = ServerFleet({"b": (b, [2, 3]), "a": (a, [0, 1])})
        events = fleet.advance_to(20)
        assert events == sorted(events)
        assert [e.resource_id for e in events] == [0, 2, 1, 3]

    def test_advance_consumes_every_member_even_on_empty_prefix(self):
        """The k-way merge must advance every member eagerly: a member
        with no events still needs its clock moved."""
        epoch = Epoch(10)
        quiet = OriginServer(UpdateTrace([], epoch))
        busy = OriginServer(UpdateTrace([UpdateEvent(1, 0, "x")], epoch))
        fleet = ServerFleet({"quiet": (quiet, [5]), "busy": (busy, [0])})
        fleet.advance_to(7)
        assert quiet.clock == 7
        assert busy.clock == 7


class TestShardCoordinator:
    def test_assign_is_deterministic_and_complete(self):
        owners = ShardCoordinator(4).assign(100)
        again = ShardCoordinator(4).assign(100)
        assert np.array_equal(owners, again)
        assert owners.size == 100
        assert set(owners.tolist()) <= set(range(4))

    def test_merge_proposals_takes_global_best(self):
        proposals = [
            (np.array([3, 10]), np.array([30, 31])),
            (np.array([1, 20]), np.array([40, 41])),
            (np.array([2, 5]), np.array([50, 51])),
        ]
        winners = ShardCoordinator.merge_proposals(proposals, 3)
        assert winners.tolist() == [40, 50, 30]

    def test_merge_proposals_empty_cases(self):
        assert ShardCoordinator.merge_proposals([], 3).size == 0
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert ShardCoordinator.merge_proposals([empty], 3).size == 0
        proposals = [(np.array([1]), np.array([2]))]
        assert ShardCoordinator.merge_proposals(proposals, 0).size == 0

    def test_settle_accumulates_routed_probes(self):
        coordinator = ShardCoordinator(2)
        coordinator.settle(2, [0, 2])
        coordinator.settle(2, [1, 1])
        assert coordinator.probes_routed == [1, 3]
        loads = coordinator.loads(resources=[4, 6])
        assert loads[0].probes_routed == 1
        assert loads[1].stolen_in == 1
        assert loads[1].resources == 6


class TestProxyIntegration:
    def test_proxy_runs_against_fleet(self, fleet):
        epoch = Epoch(20)
        proxy = MonitoringProxy(fleet, epoch, BudgetVector(1),
                                MRSFPolicy())
        client = proxy.register_client("analyst")
        # Cross-server profile: one EI per exchange.
        profile = Profile([TInterval([ExecutionInterval(0, 3, 7),
                                      ExecutionInterval(2, 4, 9)])],
                          name="cross-market")
        proxy.register_profile(client, profile)
        stats = proxy.run()
        assert stats.completed == 1
        values = client.mailbox[0].values()
        assert values == ["nyse:100", "lse:99"]
        counts = fleet.probes_routed()
        assert counts["nyse"] >= 1
        assert counts["lse"] >= 1
