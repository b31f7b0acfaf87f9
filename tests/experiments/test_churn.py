"""Tests for the client-churn experiment."""

import os

import pytest

from repro.experiments import ChurnConfig, harness, jain_index, run_churn
from repro.experiments.churn import (
    CHURN_ENGINES,
    build_churn_workload,
    churn_sweep,
)
from repro.core import WorkloadError


def _config(**overrides) -> ChurnConfig:
    defaults = dict(epoch_length=120, num_resources=20, intensity=6.0,
                    num_clients=4, profiles_per_client=4, seed=99)
    defaults.update(overrides)
    return ChurnConfig(**defaults)


class TestJainIndex:
    def test_equal_values_perfectly_fair(self):
        assert jain_index([0.5, 0.5, 0.5]) == pytest.approx(1.0)

    def test_single_winner_is_1_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_bounded(self):
        values = [0.9, 0.1, 0.4]
        assert 1 / 3 <= jain_index(values) <= 1.0


class TestChurnConfig:
    def test_invalid_spread(self):
        with pytest.raises(WorkloadError):
            _config(join_spread=1.5)

    def test_invalid_leave_probability(self):
        with pytest.raises(WorkloadError):
            _config(leave_probability=-0.1)

    def test_zero_clients_rejected(self):
        with pytest.raises(WorkloadError):
            _config(num_clients=0)

    @pytest.mark.parametrize("field, value", [
        ("num_resources", 0), ("profiles_per_client", -1),
        ("max_rank", 0), ("window", -1), ("epoch_length", 0),
        ("budget", -1),
    ])
    def test_bad_sizes_rejected_up_front(self, field, value):
        """Refused by the config itself, naming the field — not later by
        a generator, an epoch or a budget built from it."""
        with pytest.raises(WorkloadError, match=f"^{field} must be >= "):
            _config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("profiles_per_client", 0), ("window", 0), ("budget", 0),
    ])
    def test_zero_is_a_size(self, field, value):
        assert getattr(_config(**{field: value}), field) == 0


class TestRunChurn:
    def test_static_join_baseline(self):
        result = run_churn(_config(join_spread=0.0))
        assert all(client.joined_at == 0 for client in result.clients)
        assert result.dropped == 0
        assert 0.0 <= result.overall_completeness <= 1.0

    def test_spread_joins_are_staggered(self):
        result = run_churn(_config(join_spread=0.8))
        joins = [client.joined_at for client in result.clients]
        assert max(joins) > 0

    def test_spread_reduces_completeness(self):
        static = run_churn(_config(join_spread=0.0))
        spread = run_churn(_config(join_spread=0.8))
        assert spread.overall_completeness <= \
            static.overall_completeness + 0.02

    def test_leavers_produce_drops(self):
        result = run_churn(_config(leave_probability=1.0))
        assert result.dropped > 0
        assert all(client.left_at is not None
                   for client in result.clients)

    def test_accounting_consistency(self):
        result = run_churn(_config(join_spread=0.5,
                                   leave_probability=0.5))
        registered = sum(client.registered for client in result.clients)
        assert registered == (result.completed + result.expired
                              + result.dropped)

    def test_notifications_bounded_by_registered(self):
        result = run_churn(_config(join_spread=0.3))
        for client in result.clients:
            assert 0 <= client.notified <= client.registered

    def test_fairness_in_unit_interval(self):
        result = run_churn(_config(join_spread=0.5))
        assert 0.0 < result.fairness <= 1.0

    def test_deterministic(self):
        first = run_churn(_config(join_spread=0.5))
        second = run_churn(_config(join_spread=0.5))
        assert first.completed == second.completed
        assert [c.notified for c in first.clients] == \
            [c.notified for c in second.clients]


class TestChurnEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(WorkloadError):
            _config(engine="turbo")

    @pytest.mark.parametrize("engine", CHURN_ENGINES)
    def test_engines_accounting_balances(self, engine):
        result = run_churn(_config(join_spread=0.6,
                                   leave_probability=1.0,
                                   engine=engine))
        assert result.engine == engine
        registered = sum(client.registered for client in result.clients)
        assert registered == (result.completed + result.expired
                              + result.dropped)
        assert result.dropped > 0

    def test_incremental_matches_rebuild_exactly(self):
        fast = run_churn(_config(join_spread=0.7, leave_probability=0.5,
                                 engine="batch"))
        rebuild = run_churn(_config(join_spread=0.7,
                                    leave_probability=0.5,
                                    engine="reference"))
        assert fast.completed == rebuild.completed
        assert fast.expired == rebuild.expired
        assert fast.dropped == rebuild.dropped
        assert fast.probes_used == rebuild.probes_used
        assert [c.notified for c in fast.clients] == \
            [c.notified for c in rebuild.clients]
        assert [c.left_at for c in fast.clients] == \
            [c.left_at for c in rebuild.clients]

    def test_engine_matches_reference_proxy(self):
        # Not contractual (tie-break sequencing could diverge), but on
        # these scenarios the columns and the live proxy
        # agree outcome for outcome — a strong cross-implementation
        # anchor for the churn plan translation. The proxy registers
        # each client's slice of the scenario's columns, the engine the
        # whole: every client's accounting must agree.
        # The first scenario happens to keep every client; the second
        # churns six of its nine out, late joiners among them.
        for overrides, leavers in (
                (dict(), 0),
                (dict(num_clients=9, profiles_per_client=3, seed=7), 6)):
            churn_out = dict(join_spread=0.6, leave_probability=0.5,
                             **overrides)
            fast = run_churn(_config(engine="batch", **churn_out))
            proxy = run_churn(_config(engine="reference", **churn_out))
            assert fast.completed == proxy.completed
            assert fast.expired == proxy.expired
            assert fast.dropped == proxy.dropped
            assert fast.clients == proxy.clients
            assert sum(client.left_at is not None
                       for client in proxy.clients) == leavers
            assert (proxy.dropped > 0) == (leavers > 0)

    def test_doomed_at_birth_agrees_across_engines(self):
        # Late joiners register t-intervals whose deadline already
        # passed; every engine reports the same count, and a static
        # join (everything registered before chronon 1) reports none.
        counts = {
            engine: run_churn(_config(
                join_spread=0.6, leave_probability=0.5,
                engine=engine)).doomed_at_birth
            for engine in CHURN_ENGINES}
        assert len(set(counts.values())) == 1
        assert counts["batch"] > 0
        assert run_churn(_config(join_spread=0.0)).doomed_at_birth == 0

    def test_workload_builder_is_deterministic(self):
        config = _config(join_spread=0.5, leave_probability=0.5)
        first = build_churn_workload(config)
        second = build_churn_workload(config)
        assert len(first[0]) == len(second[0])
        assert len(first[1]) == len(second[1])
        assert first[2].last == second[2].last
        actions = [(e.chronon, e.action) for e in first[1]]
        assert actions == [(e.chronon, e.action) for e in second[1]]
        # Adds ahead of removes; removes only at the leave chronon.
        removes = [e for e in first[1] if e.action == "remove"]
        assert all(e.chronon == (3 * config.epoch_length) // 4
                   for e in removes)


class TestChurnSweepWorkers:
    def test_one_worker_builds_no_pool(self, monkeypatch):
        """``workers=1`` is serial here as in the harness and the
        offline comparison, and so is the default, whatever the CPUs;
        two workers do fork a child."""
        built = []

        def no_pool():
            built.append("fork")
            raise AssertionError("a pool for one worker")

        monkeypatch.setattr(harness.os, "fork", no_pool)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda _pid: {0, 1, 2}, raising=False)
        serial = churn_sweep("smoke")
        single = churn_sweep("smoke", workers=1)
        assert built == []
        for row, serial_row in zip(single.rows, serial.rows):
            assert (row.completed, row.expired, row.dropped) == \
                (serial_row.completed, serial_row.expired,
                 serial_row.dropped)
        with pytest.raises(AssertionError, match="a pool for one worker"):
            churn_sweep("smoke", workers=2)
        assert built == ["fork"]

    def test_a_pooled_sweep_is_the_serial_one(self):
        from dataclasses import replace

        pooled = churn_sweep("smoke", workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        serial = churn_sweep("smoke", workers=1)
        assert len(pooled.rows) == len(serial.rows) == 6
        for row, serial_row in zip(pooled.rows, serial.rows):
            assert replace(row, runtime_seconds=0.0) == \
                replace(serial_row, runtime_seconds=0.0)
