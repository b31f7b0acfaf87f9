"""``run_online``: a one-lane block by default, the specification on
request — and the same run either way.

The default engine is the columnar kernel; what the columns cannot
encode goes to the reference (the live proxy) and an INFO record
on ``repro.simulation.proxy`` says why. Every registry policy, both
preemption modes, one faulty instance: probe for probe, counter for
counter.
"""

import logging

import pytest

from repro.core import BudgetVector, Epoch, Profile, ProfileSet
from repro.experiments import make_instance
from repro.faults import CircuitBreaker, FaultSpec, RetryConfig
from repro.online import Policy
from repro.online.registry import available_policies, parse_policy_spec
from repro.simulation import run_block, run_online
from repro.simulation.batch import FaultLane

from tests.conformance.cases import (
    ONLINE_2108,
    PINNED,
    hand_profile,
    make_policy,
)
from tests.conformance.engines import assert_agree, check, observe

_CONFIG = ONLINE_2108
_SPEC = FaultSpec(failure_probability=0.3, timeout_probability=0.1, seed=5)

SPECS = [f"{name}({mode})" for name in available_policies()
         for mode in ("P", "NP")]


def _run(spec, engine=None, faults=_SPEC):
    _trace, profiles = make_instance(_CONFIG, 0)
    policy, preemptive = make_policy(spec)
    breaker = CircuitBreaker(failure_threshold=2, cooldown=3)
    kwargs = {} if engine is None else {"engine": engine}
    result = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                        policy, preemptive=preemptive, faults=faults,
                        retry=RetryConfig(1), breaker=breaker, **kwargs)
    return result, breaker


def _proxy_records(caplog):
    return [record for record in caplog.records
            if record.name == "repro.simulation.proxy"]


@pytest.mark.parametrize("spec", SPECS)
def test_default_is_the_reference_probe_for_probe(spec):
    """The ``online`` cell of the conformance matrix on the instance
    above: faults, trace and breaker end state included, and one INFO
    record exactly when the columns refuse the policy."""
    assert check(PINNED[f"2108/faulty/{spec}"](),
                 ["online"])["probes_failed"] > 0


def test_a_policy_without_a_row_is_rerouted_once_with_the_reason(caplog):
    with caplog.at_level(logging.INFO, logger="repro.simulation"):
        _run("LOUD-MRSF(P)")
    (record,) = _proxy_records(caplog)
    assert record.levelno == logging.INFO
    assert "reference simulator" in record.getMessage()
    assert "no columnar scoring kind" in record.getMessage()


def test_the_reference_logs_nothing(caplog):
    with caplog.at_level(logging.INFO, logger="repro.simulation"):
        _run("LOUD-MRSF(P)", "reference")
        _run("MRSF(P)", "reference")
    assert _proxy_records(caplog) == []


@pytest.mark.parametrize("engine", ["fast", "solo", "rebuild"])
def test_two_engine_names_and_no_others(engine):
    with pytest.raises(ValueError, match="expected 'batch' or 'reference'"):
        _run("MRSF(P)", engine)


def _warm_breaker() -> CircuitBreaker:
    """A breaker carrying earlier runs' state: resources 0-5 tripped at
    staggered chronons (quarantined until 3, 7, ..., 23), resource 6 one
    failure short of a trip, and a tripped resource 10 000 that this
    instance does not have."""
    breaker = CircuitBreaker(failure_threshold=2, cooldown=3)
    for resource_id in range(6):
        for _ in range(2):
            breaker.record_failure(resource_id, 4 * resource_id)
    breaker.record_failure(6, 0)
    for _ in range(2):
        breaker.record_failure(10_000, 0)
    return breaker


@pytest.mark.parametrize("spec", ["S-EDF(P)", "MRSF(NP)", "M-EDF(P)"])
@pytest.mark.parametrize("faults", [None, _SPEC])
def test_a_warm_breaker_lowers(spec, faults):
    """The plane starts from a warm breaker's state and leaves the
    reference's end state behind, probe for probe."""
    _trace, profiles = make_instance(_CONFIG, 0)
    seen = []
    for engine in ("block", "reference"):
        policy, preemptive = parse_policy_spec(spec)
        breaker = _warm_breaker()
        retry = RetryConfig(1)
        if engine == "block":
            (result,) = run_block(
                profiles, _CONFIG.epoch,
                [(policy, preemptive, _CONFIG.budget_vector, 0,
                  FaultLane(faults, retry, breaker))])
        else:
            result = run_online(
                profiles, _CONFIG.epoch, _CONFIG.budget_vector, policy,
                preemptive=preemptive, faults=faults, retry=retry,
                breaker=breaker, engine="reference")
        seen.append(observe(result, faults, breaker))
    block, reference = seen
    assert_agree(block, reference)
    assert block["breaker"] == reference["breaker"]
    assert 10_000 in reference["breaker"][1]
    # The warm state mattered: a cold breaker probes differently.
    cold = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                      *parse_policy_spec(spec), faults=faults,
                      retry=RetryConfig(1),
                      breaker=CircuitBreaker(failure_threshold=2,
                                             cooldown=3))
    assert list(cold.schedule.probes()) != block["probes"]


class IdRecorder(Policy):
    """Earliest deadline first, recording the profile id of every
    candidate it scores."""

    name = "id-recorder"

    def __init__(self) -> None:
        self.seen: set[int] = set()

    def score(self, candidate, chronon):
        self.seen.add(candidate.state.eta.profile_id)
        return candidate.ei.finish - chronon


def test_the_reference_keeps_the_ids_of_an_empty_profiles_set():
    """An empty profile is registered like any other, so the profiles
    after it keep their ids — a policy keying on ``profile_id`` (RANDOM)
    and the per-profile report see the set as it was given."""
    profiles = ProfileSet([Profile([]), hand_profile([(0, 1, 3)]),
                           hand_profile([(1, 2, 4)])])
    policy = IdRecorder()
    result = run_online(profiles, Epoch(6), BudgetVector(1), policy,
                        engine="reference")
    assert policy.seen == {1, 2}
    assert result.report.per_profile == {0: (0, 0), 1: (1, 1), 2: (1, 1)}
