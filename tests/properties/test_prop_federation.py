"""Equivalence property: the sharded federation IS the monolith proxy.

:func:`~repro.simulation.shard.federated_run` partitions the resource
catalog over K proxy shards and lets a coordinator merge the shards'
per-chronon proposals; it models where work and budget go, never what
is scheduled, so for ANY shard count the merged schedule must reproduce
the reference simulator probe for probe — each shard proposes its top-C
packed rank keys and the keys embed the monolith's full tie-break order,
so the global top-C is the monolith's selection exactly
(``docs/ALGORITHMS.md`` §15). These properties drive random profile sets
over K=1..4 (with only four resources, higher K leaves shards empty — a
good edge), fault-free and faulty both, against the reference and, one
leg, against the one-lane block whose select step the federation
replaces, plus the budget-stealing ledger's conservation identities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector
from repro.faults import FaultInjector
from repro.online.registry import parse_policy_spec
from repro.simulation import federated_run, run_block, run_online
from repro.simulation.batch import FaultLane

from tests.properties.strategies import epoch, fault_specs, profile_sets
from tests.properties.test_prop_batch import (
    BATCH_SPECS,
    budget_vectors,
    _assert_same_run,
)
from tests.properties.test_prop_batch_faults import (
    FAULT_POLICIES,
    _assert_same_faulty_run,
    _make_breaker,
    breaker_params,
    retry_configs,
)


def _reference(profiles, spec, budget, **kwargs):
    policy, preemptive = parse_policy_spec(spec)
    return run_online(profiles, epoch(), budget, policy,
                      preemptive=preemptive, engine="reference", **kwargs)


def _federated(profiles, spec, budget, shards, **kwargs):
    policy, preemptive = parse_policy_spec(spec)
    return federated_run(profiles, epoch(), budget, policy,
                         preemptive=preemptive, shards=shards, **kwargs)


def _assert_accounting(federated):
    """The ledger identities that must hold on every run, faulty or not:
    routed decisions partition the spend (a routed probe may fail, and a
    retry re-attempts an already-routed decision, hence the
    ``used + failed - retries`` form — fault-free it reduces to
    ``routed == used``), steals balance, and no shard outspends its
    nominal-plus-stolen allowance."""
    loads = federated.loads
    result = federated.result
    assert sum(load.probes_routed for load in loads) == \
        result.probes_used + result.probes_failed - result.retries
    assert sum(load.stolen_in for load in loads) == \
        sum(load.stolen_out for load in loads)
    assert federated.stolen_budget == \
        sum(load.stolen_in for load in loads)
    for load in loads:
        assert load.probes_routed >= 0
        assert load.probes_routed <= load.effective_budget
        assert load.stolen_out <= load.nominal_budget


class TestFederationEquivalence:
    @given(profiles=profile_sets(max_profiles=4),
           spec_index=st.integers(0, len(BATCH_SPECS) - 1),
           budget=budget_vectors(),
           shards=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_fault_free_probe_for_probe(self, profiles, spec_index,
                                        budget, shards):
        """ISSUE satellite: K-shard federated run probe-for-probe
        identical to the monolith proxy for shard counts 1-4."""
        spec = BATCH_SPECS[spec_index]
        federated = _federated(profiles, spec, budget, shards)
        _assert_same_run(_reference(profiles, spec, budget), federated.result)
        assert federated.shards == shards
        _assert_accounting(federated)

    @given(profiles=profile_sets(max_profiles=3),
           budget=budget_vectors(),
           shards=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_all_policies_one_instance(self, profiles, budget, shards):
        """Every columnar policy family over the same instance and shard
        split — the coordinator's merge is policy-agnostic."""
        for spec in BATCH_SPECS[::2]:
            federated = _federated(profiles, spec, budget, shards)
            _assert_same_run(_reference(profiles, spec, budget),
                             federated.result)

    @given(profiles=profile_sets(max_profiles=4),
           spec=fault_specs(with_per_resource=True),
           policy_index=st.integers(0, len(FAULT_POLICIES) - 1),
           budget=st.integers(1, 3),
           shards=st.integers(1, 4),
           retry=retry_configs(), breaker=breaker_params())
    @settings(max_examples=60, deadline=None)
    def test_faulty_run_identities(self, profiles, spec, policy_index,
                                   budget, shards, retry, breaker):
        """Under faults the federation must still match the reference
        probe for probe — failures, retries and quarantine included —
        and the GC/accounting identities must hold."""
        label = FAULT_POLICIES[policy_index]
        budget = BudgetVector(budget)
        fast = _reference(profiles, label, budget,
                          faults=FaultInjector(spec), retry=retry,
                          breaker=_make_breaker(breaker))
        federated = _federated(profiles, label, budget, shards,
                               faults=FaultInjector(spec), retry=retry,
                               breaker=_make_breaker(breaker))
        result = federated.result
        _assert_same_run(fast, result)
        assert result.probes_failed == fast.probes_failed
        assert result.retries == fast.retries
        assert result.resources_quarantined == fast.resources_quarantined
        assert result.gc == fast.gc
        _assert_accounting(federated)

    @given(profiles=profile_sets(max_profiles=4),
           spec=st.none() | fault_specs(with_per_resource=True),
           policy_index=st.integers(0, len(FAULT_POLICIES) - 1),
           budget=st.integers(1, 3),
           shards=st.integers(1, 4),
           retry=retry_configs(), breaker=breaker_params())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_one_lane_block(self, profiles, spec, policy_index,
                                       budget, shards, retry, breaker):
        """The federation is the block kernel with another select step:
        the kernel's own select gives the same run — fault counters,
        recorded fault trace and breaker end state included."""
        label = FAULT_POLICIES[policy_index]
        budget = BudgetVector(budget)

        def layers():
            if spec is None:
                return None, None, None
            return FaultInjector(spec), retry, _make_breaker(breaker)

        policy, preemptive = parse_policy_spec(label)
        block_layers = layers()
        block, = run_block(profiles, epoch(), [
            (policy, preemptive, budget, 0, FaultLane(*block_layers))])
        fed_faults, fed_retry, fed_breaker = layers()
        federated = _federated(profiles, label, budget, shards,
                               faults=fed_faults, retry=fed_retry,
                               breaker=fed_breaker)
        _assert_same_faulty_run(block, federated.result,
                                (block_layers[0], block_layers[2]),
                                (fed_faults, fed_breaker))
        _assert_accounting(federated)

    @given(profiles=profile_sets(max_profiles=4),
           budget=budget_vectors(),
           shards=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_worksteal_ledger_covers_demand(self, profiles, budget,
                                            shards):
        """When the coordinator's winners cluster on one shard, stealing
        must cover the whole deficit: spend equals routed demand shard
        by shard, never capped below it."""
        federated = _federated(profiles, "M-EDF(P)", budget, shards)
        _assert_accounting(federated)
        loads = federated.loads
        assert len(loads) == shards
        assert [load.shard for load in loads] == list(range(shards))
        if shards == 1:
            assert federated.stolen_budget == 0
            assert federated.steal_transfers == 0
