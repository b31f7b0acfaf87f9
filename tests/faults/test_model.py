"""Tests for the fault model: specs, injectors and their recorded traces."""

import pytest

from repro.core.errors import FaultError
from repro.faults import (
    PROBE_FAILED,
    PROBE_OK,
    PROBE_THROTTLED,
    FaultInjector,
    FaultSpec,
    Outage,
)


class TestFaultSpec:
    def test_null_spec(self):
        assert FaultSpec().is_null

    def test_non_null_specs(self):
        assert not FaultSpec(failure_probability=0.1).is_null
        assert not FaultSpec(outages=(Outage(0, 1, 2),)).is_null
        assert not FaultSpec(max_probes_per_chronon=3).is_null
        assert not FaultSpec(per_resource={1: 0.5}).is_null

    def test_zeroed_per_resource_is_null(self):
        assert FaultSpec(per_resource={1: 0.0}).is_null

    @pytest.mark.parametrize("kwargs", [
        {"failure_probability": -0.1},
        {"failure_probability": 1.5},
        {"timeout_probability": 2.0},
        {"stale_probability": -1.0},
        {"stale_lag": -1},
        {"max_probes_per_chronon": -2},
        {"per_resource": {0: 1.1}},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(FaultError):
            FaultSpec(**kwargs)

    def test_overlapping_outages_rejected(self):
        with pytest.raises(FaultError) as err:
            FaultSpec(outages=(Outage(2, 3, 9), Outage(2, 7, 12)))
        message = str(err.value)
        assert "resource 2" in message
        assert "Outage(resource_id=2, start=3, last=9)" in message
        assert "Outage(resource_id=2, start=7, last=12)" in message

    def test_window_after_permanent_outage_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(outages=(Outage(1, 0, None), Outage(1, 50, 60)))

    def test_disjoint_and_cross_resource_windows_accepted(self):
        spec = FaultSpec(outages=(Outage(0, 0, 4), Outage(0, 5, None),
                                  Outage(1, 2, 8)))
        assert len(spec.outages) == 3

    def test_per_resource_overrides_global_rate(self):
        spec = FaultSpec(failure_probability=0.2, per_resource={7: 0.9})
        assert spec.failure_rate_for(7) == 0.9
        assert spec.failure_rate_for(3) == 0.2


class TestOutage:
    def test_covers_window(self):
        outage = Outage(0, 5, 8)
        assert not outage.covers(4)
        assert outage.covers(5)
        assert outage.covers(8)
        assert not outage.covers(9)

    def test_permanent_outage(self):
        outage = Outage(0, 3, None)
        assert outage.covers(3)
        assert outage.covers(10_000)

    def test_inverted_window_rejected(self):
        with pytest.raises(FaultError, match="ends at"):
            Outage(0, 5, 4)


class TestFaultInjector:
    def test_null_spec_never_faults(self):
        injector = FaultInjector(FaultSpec())
        for chronon in range(1, 20):
            injector.begin_chronon(chronon)
            for resource_id in range(5):
                assert injector.decide(resource_id, chronon).ok

    def test_decisions_are_order_independent(self):
        spec = FaultSpec(failure_probability=0.5, seed=11)
        forward = FaultInjector(spec)
        backward = FaultInjector(spec)
        ids = list(range(10))
        fwd = {i: forward.decide(i, 1).status for i in ids}
        bwd = {i: backward.decide(i, 1).status for i in reversed(ids)}
        assert fwd == bwd

    def test_decisions_deterministic_across_injectors(self):
        spec = FaultSpec(failure_probability=0.3,
                         timeout_probability=0.2,
                         stale_probability=0.2, seed=5)
        one = FaultInjector(spec)
        two = FaultInjector(spec)
        for chronon in range(1, 10):
            one.begin_chronon(chronon)
            two.begin_chronon(chronon)
            for resource_id in range(6):
                a = one.decide(resource_id, chronon)
                b = two.decide(resource_id, chronon)
                assert (a.status, a.fault, a.stale) == \
                    (b.status, b.fault, b.stale)

    def test_different_seeds_differ(self):
        spec_a = FaultSpec(failure_probability=0.5, seed=1)
        spec_b = FaultSpec(failure_probability=0.5, seed=2)
        outcomes_a = [FaultInjector(spec_a).decide(r, 1).status
                      for r in range(40)]
        outcomes_b = [FaultInjector(spec_b).decide(r, 1).status
                      for r in range(40)]
        assert outcomes_a != outcomes_b

    def test_attempts_draw_independently(self):
        # A failed first attempt must not force the retry to fail too.
        spec = FaultSpec(failure_probability=0.5, seed=3)
        injector = FaultInjector(spec)
        statuses = {injector.decide(0, 1, attempt).status
                    for attempt in range(20)}
        assert statuses == {PROBE_OK, PROBE_FAILED}

    def test_failure_rate_is_roughly_honoured(self):
        spec = FaultSpec(failure_probability=0.3, seed=9)
        injector = FaultInjector(spec)
        failed = sum(
            not injector.decide(resource_id, chronon).ok
            for chronon in range(1, 101)
            for resource_id in range(10))
        assert 0.2 < failed / 1000 < 0.4

    def test_outage_beats_probability(self):
        spec = FaultSpec(outages=(Outage(2, 1, 5),))
        injector = FaultInjector(spec)
        decision = injector.decide(2, 3)
        assert decision.status == PROBE_FAILED
        assert decision.fault == "outage"
        assert injector.decide(2, 6).ok

    def test_rate_limit_throttles_excess_requests(self):
        spec = FaultSpec(max_probes_per_chronon=2)
        injector = FaultInjector(spec)
        injector.begin_chronon(1)
        assert injector.decide(0, 1).ok
        assert injector.decide(1, 1).ok
        third = injector.decide(2, 1)
        assert third.status == PROBE_THROTTLED
        assert third.fault == "rate-limit"
        # The window resets with the chronon.
        injector.begin_chronon(2)
        assert injector.decide(3, 2).ok

    def test_stale_decision(self):
        spec = FaultSpec(stale_probability=1.0)
        decision = FaultInjector(spec).decide(0, 1)
        assert decision.ok
        assert decision.stale


class TestFaultTrace:
    def test_records_every_attempt(self):
        spec = FaultSpec(failure_probability=0.5, seed=4)
        injector = FaultInjector(spec)
        injector.begin_chronon(1)
        decisions = [injector.decide(resource_id, 1)
                     for resource_id in range(5)]
        assert [(record.chronon, record.resource_id, record.attempt,
                 record.status, record.fault)
                for record in injector.trace] == [
            (1, resource_id, 0, decision.status, decision.fault)
            for resource_id, decision in enumerate(decisions)]

    def test_recording_can_be_disabled(self):
        injector = FaultInjector(FaultSpec(failure_probability=0.5),
                                 record=False)
        injector.decide(0, 1)
        assert len(injector.trace) == 0
