"""Equivalence property: the sharded federation IS the monolith proxy.

:func:`~repro.simulation.shard.federated_run` partitions the resource
catalog over K proxy shards; it models where work and budget go, never
what is scheduled, so for ANY shard count its schedule must reproduce
the reference simulator probe for probe — each shard proposing its top-C
packed rank keys, keys that embed the monolith's full tie-break order,
and merging them is the monolith's selection exactly
(``docs/ALGORITHMS.md`` §15), so the federation books the one-lane
block's schedule. That identity, with the ledger's
conservation identities on every run, is the ``federated`` line of the
conformance matrix (``tests/conformance``); the names below keep
pointing at its pinned cells. The work-stealing property stays here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.registry import parse_policy_spec
from repro.simulation import federated_run

from tests.conformance.engines import assert_accounting, check_pinned
from tests.properties.strategies import budget_vectors, epoch, profile_sets


class TestFederationEquivalence:
    def test_fault_free_probe_for_probe(self):
        check_pinned("123/reliable/", ["federated"])

    def test_all_policies_one_instance(self):
        check_pinned("123/reliable/K1/", ["federated"])

    def test_equals_the_one_lane_block(self):
        check_pinned("123/reliable/K4/", ["block", "federated"])

    @given(profiles=profile_sets(max_profiles=4),
           budget=budget_vectors(),
           shards=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_worksteal_ledger_covers_demand(self, profiles, budget,
                                            shards):
        """When a chronon's winners cluster on one shard, stealing
        must cover the whole deficit: spend equals routed demand shard
        by shard, never capped below it."""
        policy, preemptive = parse_policy_spec("M-EDF(P)")
        federated = federated_run(profiles, epoch(), budget, policy,
                                  preemptive=preemptive, shards=shards)
        assert_accounting(federated)
        loads = federated.loads
        assert len(loads) == shards
        assert [load.shard for load in loads] == list(range(shards))
        if shards == 1:
            assert federated.stolen_budget == 0
            assert federated.steal_transfers == 0
