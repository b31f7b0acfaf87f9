"""The chaos/soak harness: invariants hold and runs are reproducible."""

import asyncio
import dataclasses

from repro.runtime.aio.chaos import ChaosConfig, run_soak, smoke_scenarios

SMALL = ChaosConfig(epoch_length=30, num_profiles=10, num_resources=8)


class TestSoakInvariants:
    def test_fault_free_run_is_identical_to_sync(self):
        report = asyncio.run(run_soak(SMALL))
        assert report.ok, report.describe()
        assert report.duplicates == 0

    def test_fault_storm_loses_nothing(self):
        config = dataclasses.replace(
            SMALL, failure_probability=0.3, timeout_probability=0.1,
            max_retries=2)
        report = asyncio.run(run_soak(config))
        assert report.ok, report.describe()
        assert report.stats.probes_failed > 0  # the storm actually hit

    def test_fault_storm_is_identical_to_sync(self):
        # Spare budget lets retries compete for it: the async proxy must
        # spend it in the synchronous proxy's order.
        config = ChaosConfig(budget=4, seed=1, failure_probability=0.25,
                             timeout_probability=0.1, max_retries=2)
        report = asyncio.run(run_soak(config))
        assert report.ok, report.describe()
        assert report.stats.retries > 0

    def test_outages_and_slow_servers_lose_nothing(self):
        config = dataclasses.replace(
            SMALL, outage_count=2, outage_length=5, slow_fraction=0.2,
            failure_probability=0.05)
        report = asyncio.run(run_soak(config))
        assert report.ok, report.describe()

    def test_same_seed_reproduces_exactly(self):
        config = dataclasses.replace(SMALL, failure_probability=0.25,
                                     seed=3)
        first = asyncio.run(run_soak(config))
        second = asyncio.run(run_soak(config))
        assert first.stats == second.stats
        assert first.delivered == second.delivered

    def test_journal_survives_the_soak(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        report = asyncio.run(run_soak(SMALL, journal_path=path))
        assert report.ok, report.describe()
        text = path.read_text()
        assert text.count('"type":"complete"') == report.stats.completed

    def test_smoke_lineup_covers_fault_modes(self):
        lineup = smoke_scenarios()
        assert any(config.fault_free for config in lineup.values())
        assert any(config.failure_probability > 0
                   for config in lineup.values())
        assert any(config.outage_count > 0
                   for config in lineup.values())
