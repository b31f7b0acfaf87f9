"""Tests for the circuit breaker, backoff, and retry config."""

import pytest

from repro.core.errors import FaultError
from repro.faults import CircuitBreaker, RetryConfig, execute_probes
from repro.faults.model import OK_DECISION, FaultDecision
from repro.runtime.server import PROBE_FAILED


_NAN = float("nan")


class TestFieldsCheckedWhereBuilt:
    """An integer field is an ``int`` (not a ``bool``) at or above its
    floor and a float field is finite, or the constructor raises a
    FaultError naming the field — before any run could read it."""

    @pytest.mark.parametrize("build, field", [
        (lambda: CircuitBreaker(failure_threshold=2.5), "failure_threshold"),
        (lambda: CircuitBreaker(failure_threshold=True),
         "failure_threshold"),
        (lambda: CircuitBreaker(cooldown=4.0), "cooldown"),
        (lambda: CircuitBreaker(max_cooldown=64.5), "max_cooldown"),
        (lambda: CircuitBreaker(backoff_factor=_NAN), "backoff_factor"),
        (lambda: CircuitBreaker(backoff_factor=float("inf")),
         "backoff_factor"),
        (lambda: RetryConfig(1.5), "max_retries"),
        (lambda: RetryConfig(True), "max_retries"),
        (lambda: RetryConfig(base_delay=_NAN), "base_delay"),
        (lambda: RetryConfig(factor=_NAN), "factor"),
        (lambda: RetryConfig(max_delay=float("inf")), "max_delay"),
        (lambda: RetryConfig(seed=1.5), "seed"),
    ])
    def test_bad_field_is_refused_by_name(self, build, field):
        with pytest.raises(FaultError, match=field):
            build()


class TestRetryConfig:
    def test_negative_retries_rejected(self):
        with pytest.raises(FaultError):
            RetryConfig(max_retries=-1)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=4)
        assert not breaker.record_failure(0, 1)
        assert not breaker.record_failure(0, 2)
        assert breaker.record_failure(0, 3)
        assert breaker.is_blocked(0, 4)
        assert breaker.is_blocked(0, 7)  # 3 + cooldown 4
        assert not breaker.is_blocked(0, 8)

    def test_success_resets(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=4)
        breaker.record_failure(0, 1)
        breaker.record_success(0)
        assert not breaker.record_failure(0, 2)

    def test_half_open_failure_retrips_with_backoff(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=4,
                                 backoff_factor=2.0, max_cooldown=64)
        breaker.record_failure(0, 1)
        breaker.record_failure(0, 2)  # trips; open through chronon 6
        assert breaker.is_blocked(0, 6)
        # Half-open trial at 7 fails: re-trips immediately, doubled.
        assert breaker.record_failure(0, 7)
        assert breaker.is_blocked(0, 15)  # 7 + 4 * 2
        assert not breaker.is_blocked(0, 16)

    def test_cooldown_is_capped(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4,
                                 backoff_factor=10.0, max_cooldown=8)
        breaker.record_failure(0, 1)   # cooldown 4
        breaker.record_failure(0, 6)   # would be 40, capped at 8
        assert breaker.is_blocked(0, 14)
        assert not breaker.is_blocked(0, 15)

    def test_resources_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4)
        breaker.record_failure(0, 1)
        assert breaker.is_blocked(0, 2)
        assert not breaker.is_blocked(1, 2)

    def test_quarantine_accounting(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.record_failure(3, 1)
        breaker.record_failure(5, 1)
        assert breaker.quarantined_now(2) == {3, 5}
        assert breaker.quarantined_count == 2
        breaker.record_success(3)
        # Ever-quarantined is cumulative; current quarantine is not.
        assert breaker.quarantined_now(2) == {5}
        assert breaker.quarantined_count == 2

    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"cooldown": 0},
        {"backoff_factor": 0.5},
        {"cooldown": 10, "max_cooldown": 5},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(FaultError):
            CircuitBreaker(**kwargs)


class _Decision:
    def __init__(self, resource_id):
        self.resource_id = resource_id


class _ScriptedProber:
    """Fails resources per a script: {resource_id: attempts_that_fail}."""

    def __init__(self, failing):
        self.failing = failing
        self.calls = []

    def __call__(self, resource_id, attempt):
        self.calls.append((resource_id, attempt))
        if attempt < self.failing.get(resource_id, 0):
            return FaultDecision(PROBE_FAILED, fault="drop")
        return OK_DECISION


class TestExecuteProbes:
    def test_all_ok_consumes_no_extra_budget(self):
        prober = _ScriptedProber({})
        round_ = execute_probes([_Decision(0), _Decision(1)], 1, 5, prober)
        assert set(round_.outcomes) == {0, 1}
        assert round_.attempts == 2
        assert round_.failures == 0
        assert round_.retries == 0

    def test_failed_probe_without_retry_stays_failed(self):
        prober = _ScriptedProber({0: 1})
        round_ = execute_probes([_Decision(0)], 1, 5, prober)
        assert round_.outcomes == {}
        assert round_.failed == [0]
        assert round_.failures == 1

    def test_retry_recovers_with_leftover_budget(self):
        prober = _ScriptedProber({0: 1})
        round_ = execute_probes([_Decision(0)], 1, 2, prober,
                                retry=RetryConfig(1))
        assert 0 in round_.outcomes
        assert round_.retries == 1
        assert round_.attempts == 2
        assert prober.calls == [(0, 0), (0, 1)]

    def test_no_leftover_budget_means_no_retry(self):
        prober = _ScriptedProber({0: 1})
        round_ = execute_probes([_Decision(0)], 1, 1, prober,
                                retry=RetryConfig(3))
        assert round_.retries == 0
        assert round_.failed == [0]

    def test_retries_capped_per_resource(self):
        prober = _ScriptedProber({0: 10})
        round_ = execute_probes([_Decision(0)], 1, 100, prober,
                                retry=RetryConfig(2))
        assert round_.failed == [0]
        assert round_.retries == 2
        assert round_.failures == 3

    def test_retry_budget_shared_across_resources_in_order(self):
        prober = _ScriptedProber({0: 2, 1: 1})
        # budget 4: two first attempts + two retries, both to resource 0
        # (decision order), leaving none for resource 1.
        round_ = execute_probes([_Decision(0), _Decision(1)], 1, 4,
                                prober, retry=RetryConfig(2))
        assert 0 in round_.outcomes
        assert round_.failed == [1]

    def test_breaker_trip_stops_in_chronon_retries(self):
        prober = _ScriptedProber({0: 10})
        breaker = CircuitBreaker(failure_threshold=2, cooldown=4)
        round_ = execute_probes([_Decision(0)], 1, 100, prober,
                                retry=RetryConfig(5), breaker=breaker)
        # First attempt + one retry trip the breaker; retries stop.
        assert round_.retries == 1
        assert breaker.is_blocked(0, 1)

    def test_more_decisions_than_budget_rejected(self):
        prober = _ScriptedProber({})
        with pytest.raises(FaultError, match="overspend"):
            execute_probes([_Decision(0), _Decision(1)], 1, 1, prober)
        assert prober.calls == []

    def test_success_feeds_breaker(self):
        prober = _ScriptedProber({})
        breaker = CircuitBreaker(failure_threshold=2, cooldown=4)
        breaker.record_failure(0, 1)
        execute_probes([_Decision(0)], 5, 5, prober, breaker=breaker)
        # The success cleared the failure streak: one more failure does
        # not trip the threshold-2 breaker.
        assert not breaker.record_failure(0, 6)


class TestCooldownGrowth:
    def test_fractional_backoff_factor_never_stalls(self):
        # Regression: int() truncation made cooldown=1, factor=1.5
        # produce 1, 1, 2, ... (the second trip's window was no longer
        # than the first); ceil gives strictly growing windows until
        # the cap.
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1,
                                 backoff_factor=1.5, max_cooldown=64)
        windows = [breaker._cooldown_for(trips) for trips in range(5)]
        assert windows == [1, 2, 3, 4, 6]
        assert all(b > a for a, b in zip(windows, windows[1:]))

    def test_integer_factors_unchanged_by_ceil(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4,
                                 backoff_factor=2.0, max_cooldown=64)
        assert [breaker._cooldown_for(t) for t in range(4)] == \
            [4, 8, 16, 32]

    def test_pinned_windows_up_to_and_past_the_cap(self):
        # Values below the cap are the plain ceil of the power, bit for
        # bit (the block kernel's breaker matrices call the same method).
        fractional = CircuitBreaker(1, cooldown=1, backoff_factor=1.5,
                                    max_cooldown=64)
        assert [fractional._cooldown_for(t) for t in range(13)] == \
            [1, 2, 3, 4, 6, 8, 12, 18, 26, 39, 58, 64, 64]
        doubling = CircuitBreaker(1, cooldown=3, backoff_factor=2.0,
                                  max_cooldown=100)
        assert [doubling._cooldown_for(t) for t in range(13)] == \
            [3, 6, 12, 24, 48, 96] + [100] * 7

    def test_the_cap_needs_no_power(self):
        breaker = CircuitBreaker(1, 4, 2.0, 64)
        assert breaker._cooldown_for(10_000) == breaker.max_cooldown

    def test_a_resource_that_never_answers_keeps_tripping(self):
        # Regression: 2.0 ** trips overflowed a float past ~1 023 trips,
        # which this drive reaches near chronon 66 000.
        breaker = CircuitBreaker(1, 4, 2.0, 64)
        trips = 0
        for chronon in range(100_000):
            if not breaker.is_blocked(0, chronon):
                trips += breaker.record_failure(0, chronon)
        assert breaker._states[0].trips == trips > 1_100


class TestReset:
    def test_reset_reopens_quarantined_resources(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10)
        breaker.record_failure(0, 1)
        assert breaker.is_blocked(0, 5)
        breaker.reset()
        assert not breaker.is_blocked(0, 5)
        assert breaker.quarantined_count == 0

    def test_reset_clears_trip_escalation(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4,
                                 backoff_factor=2.0)
        breaker.record_failure(0, 1)
        breaker.record_failure(0, 6)  # second trip: doubled window
        breaker.reset()
        # A fresh epoch starts from the base cooldown again.
        breaker.record_failure(0, 1)
        assert breaker.is_blocked(0, 5)
        assert not breaker.is_blocked(0, 6)

    def test_reset_clears_failure_streaks(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=4)
        breaker.record_failure(0, 1)
        breaker.reset()
        assert not breaker.record_failure(0, 2)


class TestHalfOpen:
    def test_half_open_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4)
        breaker.record_failure(0, 1)  # open through chronon 5
        assert not breaker.is_half_open(0, 5)
        assert breaker.is_half_open(0, 6)

    def test_untripped_resource_is_not_half_open(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=4)
        breaker.record_failure(0, 1)  # streak of 1: below threshold
        assert not breaker.is_half_open(0, 10)

    def test_success_closes_half_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4)
        breaker.record_failure(0, 1)
        breaker.record_success(0)
        assert not breaker.is_half_open(0, 10)
