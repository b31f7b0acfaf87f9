"""Tests for the full-jitter retry delays of ``RetryConfig``."""

import pytest

from repro.core.errors import FaultError
from repro.faults import RetryConfig


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"base_delay": -0.1},
        {"factor": 0.5},
        {"base_delay": 0.5, "max_delay": 0.1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(FaultError):
            RetryConfig(**kwargs)

    def test_attempt_zero_rejected(self):
        with pytest.raises(FaultError):
            RetryConfig().window_for(0)


class TestWindows:
    def test_exponential_envelope(self):
        policy = RetryConfig(base_delay=0.01, factor=2.0, max_delay=1.0)
        assert policy.window_for(1) == pytest.approx(0.01)
        assert policy.window_for(2) == pytest.approx(0.02)
        assert policy.window_for(3) == pytest.approx(0.04)

    def test_window_capped(self):
        policy = RetryConfig(base_delay=0.01, factor=10.0,
                               max_delay=0.05)
        assert policy.window_for(3) == pytest.approx(0.05)

    def test_zero_base_means_zero_delay(self):
        policy = RetryConfig(base_delay=0.0, max_delay=0.0)
        assert policy.delay_for("0:1", 1) == 0.0


class TestJitter:
    def test_delay_within_window(self):
        policy = RetryConfig(base_delay=0.01, factor=2.0, max_delay=0.1)
        for attempt in (1, 2, 3):
            delay = policy.delay_for("7:3", attempt)
            assert 0.0 <= delay <= policy.window_for(attempt)

    def test_deterministic_across_instances(self):
        first = RetryConfig(seed=42)
        second = RetryConfig(seed=42)
        assert first.delay_for("5:9", 2) == second.delay_for("5:9", 2)

    def test_seed_and_key_decorrelate(self):
        policy = RetryConfig(seed=1)
        other_seed = RetryConfig(seed=2)
        assert policy.delay_for("0:1", 1) != \
            other_seed.delay_for("0:1", 1)
        assert policy.delay_for("0:1", 1) != policy.delay_for("0:2", 1)


class TestRetryInterop:
    def test_max_retries_stays_the_first_field(self):
        assert RetryConfig(2) == RetryConfig(max_retries=2)
        assert RetryConfig(1) == RetryConfig(1, 0.01, 2.0, 0.25, 0)
