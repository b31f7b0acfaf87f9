"""Why a federation's ledger is booked off the one-lane block.

The block kernel turns a chronon's rank keys into picks through one
select step, :func:`~repro.simulation.batch._take_smallest`, and a
K-shard federation would pick the same: the k-way selection identity
(``docs/ALGORITHMS.md`` §15), pinned here on raw key rows against the
propose/merge protocol written out as :func:`propose_and_merge` — every
shard's take, then the coordinator's merge. So
:func:`~repro.simulation.shard.federated_run` runs the block once and
books its schedule; that shape is pinned too: one ``batch.run_block``
call per federated run, one ledger settlement per chronon that probed.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector
from repro.experiments.harness import make_instance
from repro.online.registry import parse_policy_spec
from repro.runtime.sharding import BudgetLedger
from repro.simulation import batch, federated_run
from repro.simulation.batch import _take_smallest
from repro.simulation.columnar import INF_KEY

from tests.conformance.cases import FEDERATED_123 as CONFIG


def propose_and_merge(key: np.ndarray, need: np.ndarray, kmax: int,
                      shard_of: np.ndarray, shards: int, ramp: np.ndarray):
    """The one-row picks of the propose/merge protocol, in the shape of
    :func:`_take_smallest`: every shard takes its ``min(need, |owned
    pools|)`` best of ``key`` (1 x pools) among the pools ``shard_of``
    gives it, and the coordinator merges the proposals — one ascending
    sort of their keys, unique since they end in the resource id — and
    keeps the first ``need``."""
    keys, pools = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for owner in range(shards):
        owned = np.flatnonzero(shard_of == owner)
        if owned.size:
            _rows, best, _pos = _take_smallest(key[:, owned], need, kmax,
                                               ramp)
            keys.append(key[0, owned[best]])
            pools.append(owned[best])
    keys, pools = np.concatenate(keys), np.concatenate(pools)
    winners = pools[np.argsort(keys)][:max(int(need[0]), 0)]
    return np.zeros_like(winners), winners, ramp[:winners.size]


@st.composite
def selections(draw):
    """A key row with holes, an owner map, a need and its bound."""
    # Above 192 pools the take is an argpartition, not a full argsort.
    pools = draw(st.integers(1, 12) | st.sampled_from([193, 230]))
    # Rank keys end in the resource id, so the valid ones are distinct
    # however often their higher fields tie.
    values = draw(st.lists(st.integers(0, 1 << 40) | st.integers(0, 3),
                           min_size=pools, max_size=pools))
    rids = draw(st.permutations(range(pools)))
    holes = draw(st.lists(st.booleans(), min_size=pools, max_size=pools))
    key = np.array([[INF_KEY if hole else value << 8 | rid
                     for value, rid, hole in zip(values, rids, holes)]],
                   dtype=np.int64)
    shards = draw(st.integers(1, pools + 3))
    shard_of = np.array(draw(st.lists(st.integers(0, shards - 1),
                                      min_size=pools, max_size=pools)),
                        dtype=np.int64)
    need = draw(st.integers(0, pools + 2))
    # The kernel passes the chronon's largest budget: >= need, >= 1.
    kmax = max(need, 1) + draw(st.integers(0, 2))
    return key, shard_of, shards, need, kmax


class TestKWaySelection:
    @given(selections())
    @settings(max_examples=300, deadline=None)
    def test_propose_and_merge_is_take_smallest(self, selection):
        """Per-shard top-``need`` + the coordinator's merge is the whole
        row's top-``need`` — same pools, same order, same positions —
        with empty pools never picked and shards left without a pool
        (K > pools) proposing nothing."""
        key, shard_of, shards, need, kmax = selection
        ramp = np.arange(key.shape[1], dtype=np.int64)
        need_arr = np.array([need], dtype=np.int64)
        whole = _take_smallest(key, need_arr, kmax, ramp)
        merged = propose_and_merge(key, need_arr, kmax, shard_of, shards,
                                   ramp)
        for got, want in zip(merged, whole):
            assert got.tolist() == want.tolist()
        valid = int((key != INF_KEY).sum())
        assert merged[1].size == min(need, valid)
        assert (key[0, merged[1]] != INF_KEY).all()


class TestOneKernelEntry:
    def test_one_block_one_settle_per_chronon(
            self, monkeypatch):
        """A federated run enters the kernel once, through
        ``batch.run_block``, and books the ledger once per chronon that
        probed, at that chronon's budget — both NP phases in one
        booking."""
        _trace, instance = make_instance(CONFIG, 0)
        blocks = []
        run_block = batch.run_block

        def counting_block(*args, **kwargs):
            blocks.append(run_block(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(batch, "run_block", counting_block)
        settled = []
        settle = BudgetLedger.settle

        def counting_settle(self, budget, demand):
            settled.append((budget, sum(demand)))
            return settle(self, budget, demand)

        monkeypatch.setattr(BudgetLedger, "settle", counting_settle)
        budget = BudgetVector(2, overrides={
            T: 1 + T % 3 for T in range(1, CONFIG.epoch_length, 4)})
        policy, preemptive = parse_policy_spec("S-EDF(NP)")
        federated = federated_run(instance, CONFIG.epoch, budget, policy,
                                  preemptive=preemptive, shards=4)

        ((result,),) = blocks
        assert federated.result is result
        probed = Counter(T for _rid, T in result.schedule.probes())
        assert settled == [(budget.at(T), count)
                           for T, count in sorted(probed.items())]
        assert settled and all(0 < count <= at for at, count in settled)
