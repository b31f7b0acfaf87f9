"""Equivalence property: the fast engine IS the reference engine.

Leaves with ``src/repro/simulation/engine.py``: nothing under
``src/repro`` imports that module any more, so this suite builds
:class:`FastProxySimulator` itself.

The event-indexed :class:`~repro.simulation.engine.FastProxySimulator`
exists purely as an optimization — for every input it must produce the
*same run* as the straightforward per-chronon
:class:`~repro.simulation.proxy.ProxySimulator`: the identical probe
schedule (probe for probe), the identical completeness accounting, and
the identical fault/retry/breaker counters. These properties drive both
engines over randomly generated profile sets for every registered policy
variant, with and without an injected fault layer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector
from repro.faults import CircuitBreaker, RetryConfig
from repro.online.registry import parse_policy_spec
from repro.simulation import ProxySimulator
from repro.simulation.engine import FastProxySimulator

from tests.properties.strategies import epoch, fault_specs, profile_sets

#: Every policy family, with the preemption mode the paper pairs it with
#: plus the opposite mode for the two schedule-sensitive families.
POLICY_SPECS = [
    "S-EDF(P)", "S-EDF(NP)",
    "M-EDF(P)", "M-EDF(NP)",
    "MRSF(P)", "ANTI-MRSF(P)",
    "FCFS(P)", "LFF(NP)",
    "STATICRANK(P)", "COVERAGE(P)", "RANDOM(NP)",
]


def _run_both(profiles, spec, budget, faults=None, retry=None,
              breaker_args=None):
    results = []
    for simulator in (ProxySimulator, FastProxySimulator):
        policy, preemptive = parse_policy_spec(spec)
        breaker = CircuitBreaker(**breaker_args) if breaker_args else None
        results.append(simulator(
            profiles, epoch(), BudgetVector(budget), policy,
            preemptive=preemptive, faults=faults, retry=retry,
            breaker=breaker).run())
    return results


def _assert_same_run(reference, fast):
    assert list(fast.schedule.probes()) == \
        list(reference.schedule.probes())
    assert fast.label == reference.label
    assert fast.report == reference.report
    assert fast.probes_used == reference.probes_used
    assert fast.expired == reference.expired
    assert fast.probes_failed == reference.probes_failed
    assert fast.retries == reference.retries
    assert fast.resources_quarantined == reference.resources_quarantined
    assert fast.extras == reference.extras


class TestEngineEquivalence:
    @given(profiles=profile_sets(max_profiles=4),
           spec_index=st.integers(0, len(POLICY_SPECS) - 1),
           budget=st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_reliable_runs_identical(self, profiles, spec_index, budget):
        reference, fast = _run_both(
            profiles, POLICY_SPECS[spec_index], budget)
        _assert_same_run(reference, fast)

    @given(profiles=profile_sets(max_profiles=3),
           spec_index=st.integers(0, len(POLICY_SPECS) - 1),
           budget=st.integers(1, 3), faults=fault_specs(),
           use_retry=st.booleans(), use_breaker=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_faulty_runs_identical(self, profiles, spec_index, budget,
                                   faults, use_retry, use_breaker):
        reference, fast = _run_both(
            profiles, POLICY_SPECS[spec_index], budget, faults=faults,
            retry=RetryConfig(1) if use_retry else None,
            breaker_args={"failure_threshold": 2, "cooldown": 3}
            if use_breaker else None)
        _assert_same_run(reference, fast)
