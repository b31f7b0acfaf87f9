"""Equivalence property: the batch fault plane IS the fault layer.

The columnar engine lowers :class:`FaultSpec` draws, retries and the
circuit breaker into lane-major columns (``docs/ALGORITHMS.md`` §14);
it exists purely as a throughput optimization, so every faulty lane
must reproduce the reference's run *probe for probe* — schedule,
completeness accounting, fault counters, the quarantine set, breaker
end state, and (for recording injectors) the full
:class:`~repro.faults.model.FaultTrace`, retries and breaker-gated
trials included. Fault sources the plane cannot lower (e.g. replayed
traces) must fall back to the reference, not silently diverge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    RecordedFaults,
    RetryConfig,
)
from repro.online.registry import parse_policy_spec
from repro.simulation import run_online
from repro.simulation.batch import BatchUnsupported, FaultLane, run_block

from tests.properties.strategies import epoch, fault_specs, profile_sets

#: A cross-section of columnar policy kinds, (P) and (NP) both: faults
#: interact with preemption (P lanes re-select, NP lanes commit).
FAULT_POLICIES = [
    "S-EDF(P)", "S-EDF(NP)",
    "MRSF(P)", "MRSF(NP)",
    "M-EDF(NP)", "COVERAGE(P)",
    "FCFS(NP)", "LFF(P)",
]


@st.composite
def breaker_params(draw):
    """(threshold, cooldown, backoff, max_cooldown) or None."""
    if not draw(st.booleans()):
        return None
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
            draw(st.floats(1.0, 2.5)), draw(st.integers(4, 16)))


@st.composite
def retry_configs(draw):
    if not draw(st.booleans()):
        return None
    return RetryConfig(max_retries=draw(st.integers(0, 3)))


def _make_breaker(params):
    if params is None:
        return None
    threshold, cooldown, backoff, max_cooldown = params
    return CircuitBreaker(failure_threshold=threshold, cooldown=cooldown,
                          backoff_factor=backoff,
                          max_cooldown=max_cooldown)


def _breaker_state(breaker):
    if breaker is None:
        return None
    return (breaker.ever_quarantined,
            {rid: (state.consecutive_failures, state.open_until,
                   state.trips)
             for rid, state in breaker._states.items()})


def _assert_same_faulty_run(fast, batch, fast_side, batch_side):
    """fast/batch are results; *_side are (injector, breaker) pairs."""
    assert list(batch.schedule.probes()) == list(fast.schedule.probes())
    assert batch.report == fast.report
    assert batch.probes_used == fast.probes_used
    assert batch.expired == fast.expired
    assert batch.probes_failed == fast.probes_failed
    assert batch.retries == fast.retries
    assert batch.resources_quarantined == fast.resources_quarantined
    fast_injector, fast_breaker = fast_side
    batch_injector, batch_breaker = batch_side
    if fast_injector is not None:
        assert list(batch_injector.trace) == list(fast_injector.trace)
    assert _breaker_state(batch_breaker) == _breaker_state(fast_breaker)


class TestBatchFaultEquivalence:
    @given(profiles=profile_sets(max_profiles=4),
           spec=fault_specs(with_per_resource=True),
           policy_index=st.integers(0, len(FAULT_POLICIES) - 1),
           budget=st.integers(1, 3),
           retry=retry_configs(), breaker=breaker_params())
    @settings(max_examples=80, deadline=None)
    def test_single_faulty_lane(self, profiles, spec, policy_index,
                                budget, retry, breaker):
        label = FAULT_POLICIES[policy_index]
        budget = BudgetVector(budget)
        policy, preemptive = parse_policy_spec(label)
        fast_injector = FaultInjector(spec)
        fast_breaker = _make_breaker(breaker)
        fast = run_online(profiles, epoch(), budget, policy,
                          preemptive=preemptive, faults=fast_injector,
                          retry=retry, breaker=fast_breaker,
                          engine="reference")
        policy, preemptive = parse_policy_spec(label)
        batch_injector = FaultInjector(spec)
        batch_breaker = _make_breaker(breaker)
        batch, = run_block(
            profiles, epoch(),
            [(policy, preemptive, budget, 0,
              FaultLane(batch_injector, retry, batch_breaker))])
        _assert_same_faulty_run(fast, batch,
                                (fast_injector, fast_breaker),
                                (batch_injector, batch_breaker))

    @given(profiles=profile_sets(max_profiles=4),
           specs=st.lists(fault_specs(), min_size=2, max_size=3),
           retry=retry_configs(), breaker=breaker_params())
    @settings(max_examples=30, deadline=None)
    def test_mixed_mega_block(self, profiles, specs, retry, breaker):
        """Faulty and reliable lanes share one block; every lane still
        matches its own standalone fast run."""
        cases = []
        lanes = []
        for at, label in enumerate(FAULT_POLICIES):
            spec = specs[at % len(specs)] if at % 3 else None
            budget = BudgetVector(1 + at % 3)
            policy, preemptive = parse_policy_spec(label)
            injector = FaultInjector(spec) if spec is not None else None
            lane_breaker = _make_breaker(breaker)
            fault = FaultLane(injector, retry, lane_breaker) \
                if (injector or retry or lane_breaker) else None
            lanes.append((policy, preemptive, budget, 0, fault))
            cases.append((label, budget, spec, injector, lane_breaker))
        results = run_block(profiles, epoch(), lanes)
        for batch, (label, budget, spec, batch_injector,
                    batch_breaker) in zip(results, cases):
            policy, preemptive = parse_policy_spec(label)
            fast_injector = FaultInjector(spec) \
                if spec is not None else None
            fast_breaker = _make_breaker(breaker)
            fast = run_online(profiles, epoch(), budget, policy,
                              preemptive=preemptive,
                              faults=fast_injector, retry=retry,
                              breaker=fast_breaker, engine="reference")
            _assert_same_faulty_run(fast, batch,
                                    (fast_injector, fast_breaker),
                                    (batch_injector, batch_breaker))

    @given(profiles=profile_sets(max_profiles=4),
           spec=fault_specs(),
           policy_index=st.integers(0, len(FAULT_POLICIES) - 1),
           budget=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_run_online_engine_batch(self, profiles, spec, policy_index,
                                     budget):
        """The run_online(engine="batch") entry point lowers faults."""
        label = FAULT_POLICIES[policy_index]
        budget = BudgetVector(budget)
        policy, preemptive = parse_policy_spec(label)
        fast_injector = FaultInjector(spec)
        fast = run_online(profiles, epoch(), budget, policy,
                          preemptive=preemptive, faults=fast_injector,
                          retry=RetryConfig(1), engine="reference")
        policy, preemptive = parse_policy_spec(label)
        batch_injector = FaultInjector(spec)
        batch = run_online(profiles, epoch(), budget, policy,
                           preemptive=preemptive, faults=batch_injector,
                           retry=RetryConfig(1), engine="batch")
        _assert_same_faulty_run(fast, batch, (fast_injector, None),
                                (batch_injector, None))

    @given(profiles=profile_sets(max_profiles=3),
           spec=fault_specs(),
           budget=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_replayed_traces_fall_back(self, profiles, spec, budget):
        """RecordedFaults answers from history, which the draw columns
        cannot encode: run_block refuses it, and run_online falls back
        to the reference with an identical run."""
        budget = BudgetVector(budget)
        policy, preemptive = parse_policy_spec("S-EDF(NP)")
        injector = FaultInjector(spec)
        fast = run_online(profiles, epoch(), budget, policy,
                          preemptive=preemptive, faults=injector,
                          engine="reference")
        replay = RecordedFaults(injector.trace)
        try:
            run_block(profiles, epoch(),
                      [(policy, preemptive, budget, 0,
                        FaultLane(replay, None, None))])
        except BatchUnsupported:
            pass
        else:
            raise AssertionError("replayed faults must not lower")
        policy, preemptive = parse_policy_spec("S-EDF(NP)")
        batch = run_online(profiles, epoch(), budget, policy,
                           preemptive=preemptive,
                           faults=RecordedFaults(injector.trace),
                           engine="batch")
        assert list(batch.schedule.probes()) == \
            list(fast.schedule.probes())
        assert batch.report == fast.report
        assert batch.probes_failed == fast.probes_failed
