"""Tests for the federated (sharded) simulation engine.

The acceptance bar: a federated run is probe-for-probe identical to the
reference simulator at every shard count — K=1 especially, the ISSUE's
explicit criterion — and to the one-lane block whose select step it
replaces, with the coordinator ledgers conserving budget.
"""

import pytest

from repro.online.registry import parse_policy_spec
from repro.simulation import BatchUnsupported, federated_run
from repro.experiments.harness import make_instance

from tests.conformance.cases import FEDERATED_123, PINNED, LoudMRSF
from tests.conformance.engines import check, check_pinned

CONFIG = FEDERATED_123


@pytest.fixture(scope="module")
def instance():
    _trace, profiles = make_instance(CONFIG, 0)
    return profiles


class TestMonolithIdentity:
    """The ``federated`` cells of the conformance matrix on this
    instance: every field of the run, and the ledger identities."""

    @pytest.mark.parametrize("spec", ["S-EDF(P)", "S-EDF(NP)",
                                      "M-EDF(P)", "M-EDF(NP)",
                                      "MRSF(P)", "COVERAGE(NP)",
                                      "ANTI-MRSF(P)", "FCFS(NP)",
                                      "LFF(P)", "STATICRANK(NP)"])
    def test_k1_probe_for_probe_identical(self, spec):
        check(PINNED[f"123/reliable/K1/{spec}"](), ["federated"])

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_multi_shard_identical(self, shards):
        check_pinned(f"123/reliable/K{shards}/", ["federated"])

    def test_reference_engine_identity(self):
        check(PINNED["123/reliable/K4/M-EDF(P)"](), ["federated"])


class TestFaultIdentity:
    @pytest.mark.parametrize("spec", ["S-EDF(P)", "S-EDF(NP)",
                                      "M-EDF(NP)"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_faulty_run_identical(self, spec, shards):
        check(PINNED[f"123/faulty/K{shards}/{spec}"](), ["federated"])

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("spec", ["M-EDF(P)", "S-EDF(NP)",
                                      "COVERAGE(NP)"])
    def test_one_lane_block_identical(self, spec, shards, faulty):
        """The federation replaces the block kernel's select step and
        nothing else: same run as the block's own select."""
        layer = "faulty" if faulty else "reliable"
        check(PINNED[f"123/{layer}/K{shards}/{spec}"](),
              ["block", "federated"])


class TestAccounting:
    def test_ledger_conserves_budget(self, instance):
        federated = federated_run(instance, CONFIG.epoch,
                                  CONFIG.budget_vector,
                                  parse_policy_spec("M-EDF(P)")[0],
                                  shards=4)
        loads = federated.loads
        assert sum(load.probes_routed for load in loads) == \
            federated.result.probes_used
        for load in loads:
            assert load.probes_routed <= load.effective_budget
        assert sum(load.stolen_in for load in loads) == \
            sum(load.stolen_out for load in loads)
        assert federated.stolen_budget == \
            sum(load.stolen_in for load in loads)

    def test_loads_cover_every_shard(self, instance):
        federated = federated_run(instance, CONFIG.epoch,
                                  CONFIG.budget_vector,
                                  parse_policy_spec("S-EDF(P)")[0],
                                  shards=6)
        assert [load.shard for load in federated.loads] == list(range(6))
        assert sum(load.resources for load in federated.loads) > 0


class TestRejections:
    def test_policy_without_columnar_kind_raises(self, instance):
        with pytest.raises(BatchUnsupported, match="columnar"):
            federated_run(instance, CONFIG.epoch, CONFIG.budget_vector,
                          LoudMRSF(), shards=2)
