"""The write-ahead journal: record/replay round-trips, torn tails,
corruption, and full kill-and-recover of a mid-epoch proxy."""

import asyncio
import json

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    TInterval,
)
from repro.online import MRSFPolicy
from repro.runtime import OriginServer
from repro.runtime.aio import AsyncMonitoringProxy, Journal, replay_journal
from repro.runtime.server import Snapshot
from repro.traces import UpdateEvent, UpdateTrace

EPOCH = Epoch(12)


def _trace():
    return UpdateTrace(
        [UpdateEvent(2, 0, "a1"), UpdateEvent(5, 1, "b1"),
         UpdateEvent(7, 0, "a2")], EPOCH)


def _profile(name="p"):
    return Profile([
        TInterval([ExecutionInterval(0, 1, 5)]),
        TInterval([ExecutionInterval(1, 3, 8),
                   ExecutionInterval(0, 6, 10)]),
    ], name=name)


class TestRoundTrip:
    def test_records_fold_back(self, tmp_path):
        path = tmp_path / "j.jsonl"
        snapshot = Snapshot(resource_id=0, probed_at=3, version=1,
                            updated_at=2, value="a1")
        with Journal(path) as journal:
            journal.record_client(0, "alice")
            journal.record_register(0, 0, _profile("alpha"))
            journal.record_capture(0, 1, 0, snapshot)
            journal.record_complete(0, 0, 5, (snapshot,))
            journal.record_unregister(0)
            journal.record_tick(5)

        state = replay_journal(path)
        assert state.clients == [(0, "alice")]
        assert len(state.registrations) == 1
        entry = state.registrations[0]
        assert entry.profile_id == 0
        assert entry.profile.name == "alpha"
        assert len(entry.profile) == 2
        assert state.captures[(0, 1)][0] == snapshot
        assert state.completions[(0, 0)].snapshots == (snapshot,)
        assert state.unregistered == {0}
        assert state.last_tick == 5

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record_client(0, "a")
            journal.record_tick(3)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"tick","chro')  # crash mid-write
        state = replay_journal(path)
        assert state.last_tick == 3

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record_client(0, "a")
        text = path.read_text()
        path.write_text("garbage\n" + text)
        with pytest.raises(ModelError, match="corrupt"):
            replay_journal(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"type": "header",
                                    "format": "something-else",
                                    "version": 1}) + "\n")
        with pytest.raises(ModelError, match="not an aio journal"):
            replay_journal(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record_client(0, "a")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"mystery"}\n')
            handle.write('{"type":"tick","chronon":1}\n')
        with pytest.raises(ModelError, match="unknown journal record"):
            replay_journal(path)


class TestRecovery:
    def _journaled_proxy(self, path):
        proxy = AsyncMonitoringProxy(
            OriginServer(_trace()), EPOCH, BudgetVector(1), MRSFPolicy(),
            journal=Journal(path))
        client = proxy.register_client("alice")
        proxy.register_profile(client, _profile("alpha"))
        proxy.register_profile(client, _profile("beta"))
        return proxy, client

    def test_recover_restores_registrations_and_completions(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        proxy, client = self._journaled_proxy(path)

        async def half():
            for _ in range(6):
                await proxy.astep()
        asyncio.run(half())
        proxy.journal.close()
        pre_crash = {(n.profile_id, n.tinterval_id)
                     for n in client.mailbox}

        recovered = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        assert recovered.clock == 6
        assert sorted(recovered._registrations) == [0, 1]
        mailbox = recovered._clients[0].mailbox
        assert {(n.profile_id, n.tinterval_id)
                for n in mailbox} == pre_crash
        assert set(recovered.completed_log) == pre_crash
        # Re-delivered notifications keep their snapshots.
        for notification in mailbox:
            assert notification.snapshots

    def test_recovered_run_matches_uninterrupted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        proxy, _client = self._journaled_proxy(path)

        async def half():
            for _ in range(6):
                await proxy.astep()
        asyncio.run(half())
        proxy.journal.close()

        recovered = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        asyncio.run(recovered.arun())

        reference = AsyncMonitoringProxy(
            OriginServer(_trace()), EPOCH, BudgetVector(1), MRSFPolicy())
        client = reference.register_client("alice")
        reference.register_profile(client, _profile("alpha"))
        reference.register_profile(client, _profile("beta"))
        asyncio.run(reference.arun())

        assert set(recovered.completed_log) == \
            set(reference.completed_log)
        for key, notification in reference.completed_log.items():
            assert recovered.completed_log[key].snapshots == \
                notification.snapshots
        final = recovered.stats()
        assert final.registered == (final.completed + final.expired
                                    + final.dropped)

    def test_double_crash_recovers_twice(self, tmp_path):
        path = tmp_path / "j.jsonl"
        proxy, _client = self._journaled_proxy(path)

        async def steps(target, count):
            for _ in range(count):
                await target.astep()
        asyncio.run(steps(proxy, 4))
        proxy.journal.close()

        second = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        asyncio.run(steps(second, 4))
        second.journal.close()

        third = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        assert third.clock == 8
        assert set(third.completed_log) == set(second.completed_log)

    def test_recovery_replays_a_registration_made_after_the_flush(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        proxy, client = self._journaled_proxy(path)
        asyncio.run(proxy.arun())
        proxy.register_profile(client, _profile("late"))
        final = proxy.stats()
        proxy.journal.close()
        assert final.pending == 0 and final.completed > 0
        assert final.registered == 6 == (final.completed + final.expired
                                         + final.dropped)

        recovered = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        assert recovered.clock == EPOCH.last
        assert set(recovered.completed_log) == set(proxy.completed_log)
        for stats in (recovered.stats(), asyncio.run(recovered.arun())):
            assert (stats.registered, stats.completed, stats.expired,
                    stats.dropped, stats.pending) == (
                final.registered, final.completed, final.expired,
                final.dropped, 0)

    def test_recovery_is_not_re_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        proxy, _client = self._journaled_proxy(path)

        async def steps(count):
            for _ in range(count):
                await proxy.astep()
        asyncio.run(steps(4))
        proxy.journal.close()
        before = path.read_text().count('"type":"complete"')

        recovered = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        recovered.journal.close()
        after = path.read_text().count('"type":"complete"')
        assert after == before


def _digest(name="digest"):
    """A 2-of-3 digest: any two of its three windows complete it."""
    return Profile([TInterval([ExecutionInterval(0, 1, 5),
                               ExecutionInterval(1, 3, 8),
                               ExecutionInterval(2, 4, 10)], need=2)],
                   name=name)


class TestQuotas:
    """A t-interval's ``need`` is journaled beside its EIs, only when it
    is below the size; a bad one is refused by name."""

    def _run(self, path=None, crash_at=None):
        proxy = AsyncMonitoringProxy(
            OriginServer(_trace()), EPOCH, BudgetVector(1), MRSFPolicy(),
            journal=Journal(path) if path is not None else None)
        client = proxy.register_client("alice")
        proxy.register_profile(client, _digest())
        proxy.register_profile(client, _profile("alpha"))

        async def steps():
            for _ in range(crash_at or EPOCH.last):
                await proxy.astep()
        asyncio.run(steps())
        return proxy

    @pytest.mark.parametrize("crash_at", [1, 2, 4])
    def test_recover_gives_back_the_need_and_the_completions(
            self, tmp_path, crash_at):
        path = tmp_path / "j.jsonl"
        self._run(path, crash_at).journal.close()
        (entry, _alpha) = replay_journal(path).registrations
        assert entry.profile[0].need == 2

        recovered = AsyncMonitoringProxy.recover(
            path, OriginServer(_trace()), EPOCH, BudgetVector(1),
            MRSFPolicy())
        asyncio.run(recovered.arun())
        reference = self._run()
        assert recovered.completed_log == reference.completed_log
        # Completed on its 2nd capture of 3, after the crash too.
        digest = recovered.completed_log[(0, 0)]
        assert len(digest.snapshots) == 2
        assert recovered.stats().completed == reference.stats().completed

    def test_an_all_required_profile_is_journaled_as_before(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record_register(0, 0, _profile())
            journal.record_register(1, 0, _digest())
        register = [json.loads(line)["tintervals"]
                    for line in path.read_text().splitlines()[1:]]
        assert register == [
            [[[0, 1, 5]], [[1, 3, 8], [0, 6, 10]]],
            [{"eis": [[0, 1, 5], [1, 3, 8], [2, 4, 10]], "need": 2}]]

    @pytest.mark.parametrize("record, words", [
        ({"eis": [[0, 1, 5], [1, 3, 8], [2, 4, 10]], "need": need},
         rf"has 3 EIs and needs 1\.\.3 of them, not {need!r}")
        for need in (0, 4, 1.5, True)] + [
        (record, r"is not a list of \[resource, start, finish\] triples")
        for record in ({"need": 2}, {"eis": "abc", "need": 2},
                       {"eis": [[0, 1, 5, 9]]})] + [
        (record, r"holds .*: a resource, start and finish are integers")
        for record in ([[0.5, 1, 5]], [[0, 1, 5.9]], [[False, 1, 5]],
                       {"eis": [[0, 1, None]], "need": 1})] + [
        ([[0, 6, 5]], r"is refused: EI finish 5 precedes start 6")])
    def test_a_bad_need_is_refused_by_name(self, tmp_path, record, words):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record_client(0, "alice")
        line = {"type": "register", "profile_id": 0, "client_id": 0,
                "name": "p", "tintervals": [[[0, 1, 5]], record]}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        with pytest.raises(ModelError,
                           match=r"journaled profile 0 t-interval 1 " + words):
            replay_journal(path)
