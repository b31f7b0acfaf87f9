"""The measurement simulator under injected faults.

The simulator and the live runtime share the probe-execution engine, so
the same fault world must produce the same capture counts in both — and
a null fault model must leave the simulator bit-for-bit unchanged.
"""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.faults import (
    CircuitBreaker,
    FaultSpec,
    Outage,
    RetryConfig,
)
from repro.online import MEDFPolicy, MRSFPolicy, SEDFPolicy
from repro.simulation import run_online

from tests.conformance.cases import Case
from tests.conformance.engines import check

EPOCH = Epoch(30)


def make_profiles() -> ProfileSet:
    profiles = []
    for start in (1, 6, 11, 16, 21):
        for resource_id in range(4):
            profiles.append(Profile([TInterval(
                [ExecutionInterval(resource_id, start, start + 4)])]))
    return ProfileSet(profiles)


class TestNullFaultIdentity:
    @pytest.mark.parametrize("policy_factory",
                             [SEDFPolicy, MRSFPolicy, MEDFPolicy])
    def test_null_spec_changes_nothing(self, policy_factory):
        profiles = make_profiles()
        base = run_online(profiles, EPOCH, BudgetVector(1),
                          policy_factory())
        nulled = run_online(make_profiles(), EPOCH, BudgetVector(1),
                            policy_factory(), faults=FaultSpec())
        assert nulled.gc == base.gc
        assert nulled.probes_used == base.probes_used
        assert sorted(nulled.schedule.probes()) == \
            sorted(base.schedule.probes())
        assert nulled.probes_failed == 0
        assert nulled.retries == 0
        assert nulled.resources_quarantined == 0


class TestFaultyRuns:
    def test_same_seed_identical(self):
        spec = FaultSpec(failure_probability=0.4, seed=17)
        runs = [run_online(make_profiles(), EPOCH, BudgetVector(1),
                           SEDFPolicy(), faults=spec,
                           retry=RetryConfig(1),
                           breaker=CircuitBreaker(failure_threshold=2,
                                                  cooldown=3))
                for _ in range(2)]
        assert runs[0].gc == runs[1].gc
        assert runs[0].probes_failed == runs[1].probes_failed
        assert runs[0].retries == runs[1].retries
        assert sorted(runs[0].schedule.probes()) == \
            sorted(runs[1].schedule.probes())

    def test_failures_reduce_completeness(self):
        clean = run_online(make_profiles(), EPOCH, BudgetVector(1),
                           SEDFPolicy())
        faulty = run_online(make_profiles(), EPOCH, BudgetVector(1),
                            SEDFPolicy(),
                            faults=FaultSpec(failure_probability=0.6,
                                             seed=5))
        assert faulty.probes_failed > 0
        assert faulty.gc < clean.gc

    def test_capture_accounting_stays_consistent(self):
        result = run_online(make_profiles(), EPOCH, BudgetVector(1),
                            SEDFPolicy(),
                            faults=FaultSpec(failure_probability=0.5,
                                             seed=23))
        assert result.report.captured + result.expired == \
            result.report.total

    def test_breaker_saves_budget_under_permanent_outage(self):
        spec = FaultSpec(outages=(Outage(0, 0, None),))
        without = run_online(make_profiles(), EPOCH, BudgetVector(1),
                             SEDFPolicy(), faults=spec)
        with_breaker = run_online(
            make_profiles(), EPOCH, BudgetVector(1), SEDFPolicy(),
            faults=spec,
            breaker=CircuitBreaker(failure_threshold=2, cooldown=8))
        assert with_breaker.resources_quarantined == 1
        assert with_breaker.gc > without.gc
        assert with_breaker.probes_failed < without.probes_failed


class TestRuntimeSimulatorAgreementUnderFaults:
    @pytest.mark.parametrize("engine", ["batch", "reference"])
    @pytest.mark.parametrize("preemptive", [True, False])
    @pytest.mark.parametrize("policy_factory",
                             [SEDFPolicy, MRSFPolicy, MEDFPolicy])
    def test_same_fault_world_same_captures(self, policy_factory,
                                            preemptive, engine):
        """The ``live`` cell of the conformance matrix, beside the
        simulator the engine names."""
        mode = "P" if preemptive else "NP"
        case = Case(make_profiles(), EPOCH,
                    f"{policy_factory.name}({mode})", BudgetVector(1),
                    "spec", FaultSpec(failure_probability=0.3, seed=31),
                    RetryConfig(1), (2, 3))
        check(case, ["live", "online" if engine == "batch" else "event"])
