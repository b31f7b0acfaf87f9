"""Tests for the async probe executor: the referee's request order,
semaphores, deadlines, backoff retries, and hedged quarantine-exit
trials."""

import asyncio
from types import SimpleNamespace

import pytest

from repro.core.errors import FaultError
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.runtime.aio.engine import HEDGE_ATTEMPT, execute_probes_async
from repro.runtime.server import (
    PROBE_FAILED,
    PROBE_OK,
    ProbeOutcome,
    Snapshot,
)


def _ok(resource_id, chronon=1, attempt=0):
    return ProbeOutcome(
        resource_id=resource_id, chronon=chronon, status=PROBE_OK,
        snapshot=Snapshot(resource_id=resource_id, probed_at=chronon,
                          version=0, updated_at=0, value="v"),
        attempt=attempt)


def _failed(resource_id, chronon=1, attempt=0):
    return ProbeOutcome(resource_id=resource_id, chronon=chronon,
                        status=PROBE_FAILED, fault="drop",
                        attempt=attempt)


def _decisions(*resource_ids):
    return [SimpleNamespace(resource_id=rid) for rid in resource_ids]


class TestExecuteProbesAsync:
    def test_all_success_accounting(self):
        async def prober(resource_id, attempt):
            return _ok(resource_id, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0, 1, 2), 1, 3, prober))
        assert round_.attempts == 3
        assert round_.failures == 0
        assert sorted(round_.outcomes) == [0, 1, 2]
        assert round_.failed == []

    def test_over_budget_decisions_rejected(self):
        async def prober(resource_id, attempt):
            return _ok(resource_id)

        with pytest.raises(FaultError, match="overspend"):
            asyncio.run(execute_probes_async(
                _decisions(0, 1), 1, 1, prober))

    def test_deadline_converts_to_failed_probe(self):
        async def prober(resource_id, attempt):
            await asyncio.sleep(0.2)
            return _ok(resource_id)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 1, 1, prober, deadline=0.01))
        assert round_.failed == [0]
        assert round_.failures == 1
        assert round_.attempts == 1

    def test_retry_succeeds_with_leftover_budget(self):
        calls = []

        async def prober(resource_id, attempt):
            calls.append(attempt)
            if attempt == 0:
                return _failed(resource_id)
            return _ok(resource_id, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 1, 2, prober,
            retry=RetryConfig(max_retries=1, base_delay=0.0)))
        assert calls == [0, 1]
        assert round_.retries == 1
        assert round_.failures == 1
        assert 0 in round_.outcomes

    def test_no_retry_without_leftover_budget(self):
        calls = []

        async def prober(resource_id, attempt):
            calls.append(attempt)
            return _failed(resource_id)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 1, 1, prober,
            retry=RetryConfig(max_retries=2, base_delay=0.0)))
        assert calls == [0]
        assert round_.retries == 0
        assert round_.failed == [0]

    def test_retries_follow_the_referee_order(self):
        # Both first attempts go before any retry, and the one leftover
        # unit retries the first failed resource in decision order.
        calls = []

        async def prober(resource_id, attempt):
            calls.append((resource_id, attempt))
            return _failed(resource_id, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0, 1), 1, 3, prober,
            retry=RetryConfig(max_retries=1, base_delay=0.0)))
        assert calls == [(0, 0), (1, 0), (0, 1)]
        assert round_.failed == [0, 1]
        assert round_.retries == 1

    def test_slow_first_answer_keeps_its_retry(self):
        # Resource 1 fails first in wall time; the leftover unit is
        # still resource 0's, the first failure in decision order.
        calls = []

        async def prober(resource_id, attempt):
            if (resource_id, attempt) == (0, 0):
                await asyncio.sleep(0.02)
            calls.append((resource_id, attempt))
            return _failed(resource_id, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0, 1), 1, 3, prober,
            retry=RetryConfig(max_retries=1, base_delay=0.0)))
        assert calls[-1] == (0, 1)
        assert sorted(calls) == [(0, 0), (0, 1), (1, 0)]
        assert round_.attempts == 3

    def test_mid_chronon_trip_stops_retries(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4)

        async def prober(resource_id, attempt):
            return _failed(resource_id)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 1, 4, prober, breaker=breaker,
            retry=RetryConfig(max_retries=3, base_delay=0.0)))
        # The first failure trips the breaker, blocking every retry.
        assert round_.attempts == 1
        assert breaker.is_blocked(0, 2)

    def test_semaphore_caps_concurrency(self):
        gauge = {"now": 0, "peak": 0}

        async def prober(resource_id, attempt):
            gauge["now"] += 1
            gauge["peak"] = max(gauge["peak"], gauge["now"])
            await asyncio.sleep(0.01)
            gauge["now"] -= 1
            return _ok(resource_id)

        asyncio.run(execute_probes_async(
            _decisions(0, 1, 2, 3), 1, 4, prober,
            semaphore=asyncio.Semaphore(2)))
        assert gauge["peak"] <= 2


class TestHedgedTrials:
    def _half_open_breaker(self):
        # Trip at chronon 1 with cooldown 1: open_until = 2, so the
        # resource is half-open (trial-eligible) from chronon 3 on.
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure(0, 1)
        assert breaker.is_half_open(0, 3)
        return breaker

    def test_duplicate_success_counts_as_hedge(self):
        async def prober(resource_id, attempt):
            if attempt == 0:
                await asyncio.sleep(0.05)  # slow primary
            return _ok(resource_id, chronon=3, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 3, 2, prober,
            breaker=self._half_open_breaker(), hedge_delay=0.005))
        assert round_.hedges == 1
        assert round_.attempts == 2
        assert 0 in round_.outcomes
        # requests_sent identity: used + failed + hedges == attempts
        assert 1 + round_.failures + round_.hedges == round_.attempts

    def test_hedge_rescues_failing_primary(self):
        async def prober(resource_id, attempt):
            if attempt == 0:
                await asyncio.sleep(0.05)
                return _failed(resource_id, chronon=3)
            return _ok(resource_id, chronon=3, attempt=attempt)

        breaker = self._half_open_breaker()
        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 3, 2, prober, breaker=breaker,
            hedge_delay=0.005))
        assert 0 in round_.outcomes
        assert round_.outcomes[0].attempt == HEDGE_ATTEMPT
        assert round_.failures == 1
        assert round_.hedges == 0
        # The hedge success closed the breaker.
        assert not breaker.is_blocked(0, 4)

    def test_fast_primary_skips_hedge(self):
        calls = []

        async def prober(resource_id, attempt):
            calls.append(attempt)
            return _ok(resource_id, chronon=3, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 3, 2, prober,
            breaker=self._half_open_breaker(), hedge_delay=0.05))
        assert calls == [0]
        assert round_.attempts == 1
        assert round_.hedges == 0

    def test_no_hedge_without_leftover_budget(self):
        calls = []

        async def prober(resource_id, attempt):
            calls.append(attempt)
            await asyncio.sleep(0.02)
            return _ok(resource_id, chronon=3, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 3, 1, prober,
            breaker=self._half_open_breaker(), hedge_delay=0.005))
        assert calls == [0]
        assert round_.attempts == 1

    def test_failed_trial_re_trips_without_retries(self):
        breaker = self._half_open_breaker()

        async def prober(resource_id, attempt):
            await asyncio.sleep(0.02)
            return _failed(resource_id, chronon=3, attempt=attempt)

        round_ = asyncio.run(execute_probes_async(
            _decisions(0), 3, 4, prober, breaker=breaker,
            hedge_delay=0.005,
            retry=RetryConfig(max_retries=3, base_delay=0.0)))
        assert round_.failed == [0]
        assert round_.retries == 0
        assert breaker.is_blocked(0, 4)
