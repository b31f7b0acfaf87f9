"""Tests for the monitoring proxy runtime (pull from servers, push to
clients)."""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    TInterval,
)
from repro.online import MRSFPolicy, SEDFPolicy
from repro.runtime import MonitoringProxy, OriginServer
from repro.simulation import ChurnEvent
from repro.traces import UpdateEvent, UpdateTrace


def _make_proxy(events, horizon=20, budget=1, policy=None):
    epoch = Epoch(horizon)
    trace = UpdateTrace(events, epoch)
    server = OriginServer(trace)
    proxy = MonitoringProxy(server, epoch, BudgetVector(budget),
                            policy or MRSFPolicy())
    return proxy


class TestNotificationDelivery:
    def test_completed_tinterval_notifies_client(self):
        proxy = _make_proxy([UpdateEvent(3, 0, "v1"),
                             UpdateEvent(5, 1, "w1")])
        client = proxy.register_client("alice")
        profile = Profile([TInterval([ExecutionInterval(0, 3, 7),
                                      ExecutionInterval(1, 5, 9)])],
                          name="pair")
        proxy.register_profile(client, profile)
        stats = proxy.run()
        assert stats.completed == 1
        assert len(client.mailbox) == 1
        notification = client.mailbox[0]
        assert notification.profile_name == "pair"
        assert notification.values() == ["v1", "w1"]

    def test_snapshots_carry_probe_times(self):
        proxy = _make_proxy([UpdateEvent(3, 0, "v1")])
        client = proxy.register_client()
        profile = Profile([TInterval([ExecutionInterval(0, 3, 7)])])
        proxy.register_profile(client, profile)
        proxy.run()
        snapshot = client.mailbox[0].snapshots[0]
        assert 3 <= snapshot.probed_at <= 7
        assert snapshot.value == "v1"

    def test_incomplete_tinterval_never_notifies(self):
        # Second EI's window has no budget left (collision by design).
        proxy = _make_proxy([UpdateEvent(3, 0), UpdateEvent(3, 1)],
                            budget=1)
        client = proxy.register_client()
        profile = Profile([
            TInterval([ExecutionInterval(0, 3, 3)]),
            TInterval([ExecutionInterval(1, 3, 3)]),
        ])
        proxy.register_profile(client, profile)
        stats = proxy.run()
        assert stats.completed == 1
        assert stats.expired == 1
        assert len(client.mailbox) == 1

    def test_callback_invoked(self):
        received = []
        proxy = _make_proxy([UpdateEvent(3, 0, "v")])
        client = proxy.register_client("cb", callback=received.append)
        profile = Profile([TInterval([ExecutionInterval(0, 3, 6)])])
        proxy.register_profile(client, profile)
        proxy.run()
        assert len(received) == 1
        assert received[0].values() == ["v"]

    def test_multiple_clients_isolated(self):
        proxy = _make_proxy([UpdateEvent(3, 0, "v"),
                             UpdateEvent(8, 1, "w")])
        alice = proxy.register_client("alice")
        bob = proxy.register_client("bob")
        proxy.register_profile(alice, Profile(
            [TInterval([ExecutionInterval(0, 3, 6)])]))
        proxy.register_profile(bob, Profile(
            [TInterval([ExecutionInterval(1, 8, 11)])]))
        proxy.run()
        assert len(alice.mailbox) == 1
        assert len(bob.mailbox) == 1
        assert alice.mailbox[0].client_id == alice.client_id

    def test_mailbox_drain(self):
        proxy = _make_proxy([UpdateEvent(3, 0, "v")])
        client = proxy.register_client()
        proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 3, 6)])]))
        proxy.run()
        drained = client.drain()
        assert len(drained) == 1
        assert client.mailbox == ()


class TestStepwiseExecution:
    def test_step_advances_one_chronon(self):
        proxy = _make_proxy([])
        assert proxy.step() == 1
        assert proxy.step() == 2
        assert proxy.clock == 2

    def test_step_past_epoch_rejected(self):
        proxy = _make_proxy([], horizon=2)
        proxy.run()
        with pytest.raises(ModelError, match="exhausted"):
            proxy.step()

    def test_run_until(self):
        proxy = _make_proxy([])
        proxy.run(until=5)
        assert proxy.clock == 5

    def test_run_until_past_the_epoch_is_refused_before_any_step(self):
        proxy = _make_proxy([], horizon=5)
        with pytest.raises(ModelError,
                           match=r"until=6: the epoch ends at 5"):
            proxy.run(until=6)
        assert proxy.clock == 0

    def test_run_until_behind_the_clock_is_a_no_op(self):
        proxy = _make_proxy([])
        proxy.run(until=5)
        proxy.run(until=3)
        assert proxy.clock == 5

    def test_dynamic_registration_mid_run(self):
        proxy = _make_proxy([UpdateEvent(10, 0, "late")])
        client = proxy.register_client()
        proxy.run(until=5)
        profile = Profile([TInterval([ExecutionInterval(0, 10, 14)])])
        proxy.register_profile(client, profile)
        proxy.run()
        assert len(client.mailbox) == 1
        assert client.mailbox[0].values() == ["late"]

    def test_registration_of_partially_past_profile(self):
        proxy = _make_proxy([UpdateEvent(2, 0, "early")])
        client = proxy.register_client()
        proxy.run(until=10)
        # The window [2,5] is entirely past: the t-interval expires.
        profile = Profile([TInterval([ExecutionInterval(0, 2, 5)])])
        proxy.register_profile(client, profile)
        stats = proxy.run()
        assert stats.expired >= 1
        assert client.mailbox == ()


class TestRegistrationManagement:
    def test_unknown_client_rejected(self):
        proxy = _make_proxy([])
        from repro.runtime import Client
        stranger = Client(99)
        with pytest.raises(ModelError, match="unknown client"):
            proxy.register_profile(stranger, Profile(
                [TInterval([ExecutionInterval(0, 1, 2)])]))

    def test_empty_profile_takes_the_next_id(self):
        proxy = _make_proxy([])
        client = proxy.register_client()
        assert proxy.register_profile(client, Profile([])) == 0
        assert proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 1, 2)])])) == 1
        # It monitors nothing, and cancelling it is legal.
        proxy.unregister_profile(0)
        stats = proxy.run()
        assert (stats.registered, stats.dropped) == (1, 0)

    def test_unregister_stops_notifications(self):
        proxy = _make_proxy([UpdateEvent(10, 0, "v")])
        client = proxy.register_client()
        profile_id = proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 10, 14)])]))
        proxy.run(until=5)
        proxy.unregister_profile(profile_id)
        stats = proxy.run()
        assert client.mailbox == ()
        assert stats.dropped == 1
        assert stats.completed == 0

    def test_unregister_unknown_rejected(self):
        proxy = _make_proxy([])
        with pytest.raises(ModelError, match="unknown profile"):
            proxy.unregister_profile(7)

    def test_profile_ids_unique(self):
        proxy = _make_proxy([])
        client = proxy.register_client()
        first = proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 1, 2)])]))
        second = proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(1, 1, 2)])]))
        assert first != second


def _one(resource, name="", start=6, finish=10):
    return Profile([TInterval([ExecutionInterval(resource, start, finish)])],
                   name=name)


def _followed(initial, plan, horizon=10, budget=3):
    """Follow ``plan`` to the end: the proxy, its client and the stats."""
    proxy = _make_proxy([UpdateEvent(6, r) for r in range(3)],
                        horizon=horizon, budget=budget)
    client = proxy.register_client()
    chronons = 0
    for _ in proxy.follow(client, initial, plan):
        proxy.step()
        chronons += 1
    assert chronons == horizon  # one yield before each chronon
    return proxy, client, proxy.run()


class TestFollow:
    """What ``follow`` does with a plan is what ``lower_plan`` mirrors."""

    def test_same_chronon_events_apply_in_plan_order(self):
        proxy, client, _ = _followed([], [
            ChurnEvent.add(5, _one(2, "late")),
            ChurnEvent.add(3, _one(0, "first")),
            ChurnEvent.add(3, _one(1, "second"))])
        assert {note.profile_name: note.profile_id
                for note in client.mailbox} == \
            {"first": 0, "second": 1, "late": 2}

    def test_a_cancel_lands_after_the_add_before_it_only(self):
        stats = _followed([_one(0)], [
            ChurnEvent.add(3, _one(1)), ChurnEvent.remove(3, 1)])[2]
        assert (stats.completed, stats.dropped) == (1, 1)
        with pytest.raises(ModelError, match="unknown profile id 1"):
            _followed([_one(0)], [
                ChurnEvent.remove(3, 1), ChurnEvent.add(3, _one(1))])

    def test_an_event_past_the_epoch_never_fires(self):
        stats = _followed([_one(0)], [
            ChurnEvent.add(11, _one(1)), ChurnEvent.remove(11, 0),
            ChurnEvent.remove(12, 99)])[2]
        assert (stats.registered, stats.completed, stats.dropped) == \
            (1, 1, 0)

    def test_an_add_at_the_last_chronon_expires_on_arrival(self):
        _, client, stats = _followed([], [ChurnEvent.add(10, Profile([
            TInterval([ExecutionInterval(0, 6, 10)]),
            TInterval([ExecutionInterval(1, 10, 12)])]))])
        assert (stats.registered, stats.expired, stats.pending,
                stats.probes_used) == (2, 2, 0, 0)
        assert client.mailbox == ()

    def test_a_repeated_remove_is_a_no_op(self):
        once = _followed([_one(0), _one(1)], [ChurnEvent.remove(3, 0)])[2]
        again = _followed([_one(0), _one(1)], [
            ChurnEvent.remove(3, 0), ChurnEvent.remove(3, 0),
            ChurnEvent.remove(7, 0)])[2]
        assert once == again
        assert (again.dropped, again.completed) == (1, 1)

    def test_follow_after_the_first_step_is_refused(self):
        proxy = _make_proxy([])
        client = proxy.register_client()
        proxy.step()
        with pytest.raises(ModelError, match="from chronon 0, not 1"):
            next(proxy.follow(client, [_one(0)], ()))
        assert proxy.stats().registered == 0


class TestAccounting:
    def test_invariant_registered_equals_resolved(self):
        proxy = _make_proxy(
            [UpdateEvent(3, 0), UpdateEvent(3, 1), UpdateEvent(9, 2)],
            budget=1)
        client = proxy.register_client()
        proxy.register_profile(client, Profile([
            TInterval([ExecutionInterval(0, 3, 3)]),
            TInterval([ExecutionInterval(1, 3, 3)]),
            TInterval([ExecutionInterval(2, 9, 12)]),
        ]))
        stats = proxy.run()
        assert stats.registered == (stats.completed + stats.expired
                                    + stats.dropped)
        assert stats.pending == 0

    @pytest.mark.parametrize("flushed", [True, False])
    def test_profile_registered_after_the_epoch_expires_on_arrival(
            self, flushed):
        proxy = _make_proxy([UpdateEvent(3, 0)], horizon=5)
        client = proxy.register_client()
        proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 3, 4)])]))
        if flushed:
            proxy.run()
        else:
            while proxy.clock < 5:
                proxy.step()
        late = proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 4, 5)]),
             TInterval([ExecutionInterval(0, 7, 9)])]))
        proxy.unregister_profile(late)  # resolved: not dropped as well
        for stats in (proxy.stats(), proxy.run(), proxy.run()):
            assert (stats.registered, stats.completed, stats.expired,
                    stats.dropped, stats.pending) == (3, 1, 2, 0, 0)

    def test_budget_respected(self):
        events = [UpdateEvent(c, r) for c in (2, 3) for r in (0, 1, 2)]
        proxy = _make_proxy(events, budget=2)
        client = proxy.register_client()
        proxy.register_profile(client, Profile([
            TInterval([ExecutionInterval(r, 2, 3)]) for r in (0, 1, 2)
        ]))
        proxy.run()
        assert proxy.schedule.respects_budget(BudgetVector(2), Epoch(20))

    def test_completeness_property(self):
        proxy = _make_proxy([UpdateEvent(3, 0)])
        client = proxy.register_client()
        proxy.register_profile(client, Profile(
            [TInterval([ExecutionInterval(0, 3, 6)])]))
        stats = proxy.run()
        assert stats.completeness == 1.0

    def test_stats_before_any_resolution(self):
        proxy = _make_proxy([])
        assert proxy.stats().completeness == 1.0


class TestAgreementWithSimulator:
    def test_runtime_matches_simulator_completeness(self):
        """The runtime and the measurement simulator share their
        scheduling core: same instance + policy => same captures."""
        from repro.core import ProfileSet
        from repro.simulation import run_online
        from repro.traces import PoissonUpdateModel
        from repro.workloads import GeneratorConfig, ProfileGenerator

        epoch = Epoch(100)
        trace = PoissonUpdateModel(8, seed=3).generate(range(12), epoch)
        generator = ProfileGenerator(GeneratorConfig(
            num_profiles=10, max_rank=2, window=6, seed=4))
        profiles = generator.generate(trace, epoch)

        sim = run_online(profiles, epoch, BudgetVector(1), SEDFPolicy())

        server = OriginServer(trace)
        proxy = MonitoringProxy(server, epoch, BudgetVector(1),
                                SEDFPolicy())
        client = proxy.register_client()
        for profile in profiles:
            proxy.register_profile(client, Profile(
                [TInterval(eta.eis) for eta in profile],
                name=profile.name))
        stats = proxy.run()
        assert stats.completed == sim.report.captured
        assert len(client.mailbox) == stats.completed
