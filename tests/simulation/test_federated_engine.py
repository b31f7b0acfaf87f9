"""Tests for the federated (sharded) simulation engine.

The acceptance bar: a federated run is probe-for-probe identical to the
reference simulator at every shard count — K=1 especially — and to the
one-lane block whose schedule it books, with the shard ledger
conserving budget. The federation books reliable runs; the block lines
of the conformance matrix keep every fault check.
"""

from collections import defaultdict

import pytest

from repro.core import BudgetVector, Epoch, Profile, ProfileSet
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.online.registry import parse_policy_spec
from repro.runtime.sharding import (
    ConsistentHashRing,
    ShardLoad,
    split_budget,
    steal_plan,
)
from repro.simulation import (
    BatchUnsupported,
    ColumnarInstance,
    federated_run,
    run_block,
)
from repro.simulation.churn import lower_plan
from repro.experiments.harness import make_instance

from tests.conformance.cases import FEDERATED_123, PINNED, LoudMRSF
from tests.properties.strategies import eta
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


def book_by_hand(schedule, budget: BudgetVector, shards: int):
    """The federation's ledger of ``schedule``, booked chronon by chronon
    from the sharding primitives: ``(loads, stolen units, transfers)``."""
    ring = ConsistentHashRing(shards)
    probed = defaultdict(list)
    for rid, chronon in schedule.probes():
        probed[chronon].append(rid)
    loads = [ShardLoad(shard) for shard in range(shards)]
    stolen = transfers = 0
    for chronon in sorted(probed):
        demand = [0] * shards
        for rid in probed[chronon]:
            demand[ring.owner_of(rid)] += 1
        nominal = split_budget(budget.at(chronon), shards)
        for load, share, spent in zip(loads, nominal, demand):
            load.nominal_budget += share
            load.probes_routed += spent
        for donor, thief, amount in steal_plan(nominal, demand):
            loads[donor].stolen_out += amount
            loads[thief].stolen_in += amount
            stolen += amount
            transfers += 1
    for rid in {rid for rids in probed.values() for rid in rids}:
        loads[ring.owner_of(rid)].resources += 1
    return tuple(loads), stolen, transfers


class TestLedgerOracle:
    """``federated_run``'s ledger is the one-lane block's schedule booked
    by hand, shard count by shard count, static or churned."""

    BUDGET = BudgetVector(3, overrides={4: 1, 9: 6, 17: 2})

    @staticmethod
    def _churned():
        initial, plan, epoch_ = build_churn_workload(ChurnConfig(
            epoch_length=40, num_resources=8, intensity=5.0, num_clients=8,
            profiles_per_client=3, window=6, budget=2, join_spread=0.9,
            leave_probability=0.5, seed=29))
        lowered = lower_plan(initial, plan, epoch_)
        return lowered.profiles, epoch_, ColumnarInstance.build(
            lowered.profiles, epoch_, lowered.visible_from,
            lowered.gone_from)

    @pytest.mark.parametrize("shards", [1, 3, 6])
    @pytest.mark.parametrize("churned", [False, True],
                             ids=["static", "churned"])
    @pytest.mark.parametrize("label", ["M-EDF(P)", "S-EDF(NP)"])
    def test_ledger_is_the_block_schedule_booked(self, instance, label,
                                                 churned, shards):
        profiles, epoch_, col = self._churned() if churned \
            else (instance, CONFIG.epoch, None)
        policy, preemptive = parse_policy_spec(label)
        (block,) = run_block(profiles, epoch_,
                             [(policy, preemptive, self.BUDGET)],
                             columnar=col)
        federated = federated_run(profiles, epoch_, self.BUDGET, policy,
                                  preemptive=preemptive, shards=shards,
                                  columnar=col)
        loads, stolen, transfers = book_by_hand(block.schedule,
                                                self.BUDGET, shards)
        assert block.probes_used > 0
        assert list(federated.result.schedule.probes()) == \
            list(block.schedule.probes())
        assert (federated.loads, federated.stolen_budget,
                federated.steal_transfers) == (loads, stolen, transfers)
        if shards == 1:
            assert (stolen, transfers) == (0, 0)
        else:
            assert stolen > 0

    def test_a_shard_counts_the_resources_the_run_probed(self):
        """Resources 0, 2, 3 and 5 have no EI and resource 6 opens past
        the epoch: only 1 and 4 are probed, and only they are counted."""
        profiles = ProfileSet([Profile([eta((1, 1, 2))]),
                               Profile([eta((4, 3, 4)), eta((6, 9, 9))])])
        policy, preemptive = parse_policy_spec("MRSF(P)")
        (block,) = run_block(profiles, Epoch(6),
                             [(policy, preemptive, self.BUDGET)])
        federated = federated_run(profiles, Epoch(6), self.BUDGET, policy,
                                  preemptive=preemptive, shards=3)
        assert sum(load.resources for load in federated.loads) == 2
        assert federated.loads == \
            book_by_hand(block.schedule, self.BUDGET, 3)[0]


class TestRejections:
    def test_bad_shard_count_fails_before_the_run(self, instance,
                                                   monkeypatch):
        monkeypatch.setattr(
            "repro.simulation.batch.run_block",
            lambda *args, **kwargs: pytest.fail("the block ran"))
        with pytest.raises(ValueError, match="shards must be >= 1"):
            federated_run(instance, CONFIG.epoch, CONFIG.budget_vector,
                          parse_policy_spec("M-EDF(P)")[0], shards=0)

    def test_policy_without_columnar_kind_raises(self, instance):
        with pytest.raises(BatchUnsupported, match="columnar"):
            federated_run(instance, CONFIG.epoch, CONFIG.budget_vector,
                          LoudMRSF(), shards=2)
