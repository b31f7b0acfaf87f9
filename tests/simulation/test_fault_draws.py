"""The columnar lowering's on-demand fault-draw table.

Draws are keyed on ``(seed, channel, resource, chronon, attempt)`` —
independent of probe order — so the fault plane computes only the ones
its picks actually read, caches them on the lowering, and must still
agree bit for bit with :meth:`FaultInjector._draw`.
"""

import random

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, make_instance
from repro.faults import FaultInjector, FaultSpec, RetryConfig
from repro.online.registry import parse_policy_spec
from repro.simulation.batch import FaultLane, run_block
from repro.simulation.columnar import ColumnarInstance
from repro.simulation.shard import federated_run

_CONFIG = ExperimentConfig(
    epoch_length=40, num_resources=12, num_profiles=16, intensity=4.0,
    window=6, budget=2, repetitions=1, grouping="overlap", seed=5)

_POLICIES = ("S-EDF(P)", "MRSF(NP)", "M-EDF(P)")


@pytest.fixture
def lowering():
    _trace, profiles = make_instance(_CONFIG, 0)
    return profiles, ColumnarInstance.build(profiles, _CONFIG.epoch)


def _run(profiles, columnar, spec, retry=None):
    lanes = []
    for label in _POLICIES:
        policy, preemptive = parse_policy_spec(label)
        lanes.append((policy, preemptive, _CONFIG.budget_vector, 0,
                      FaultLane(spec, retry)))
    return run_block(profiles, _CONFIG.epoch, lanes, columnar=columnar)


def _filled(draws) -> int:
    return int(np.count_nonzero(~np.isnan(draws.values[1:])))


def test_filled_entries_equal_the_injector_draws(lowering):
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, timeout_probability=0.2,
                     seed=11)
    _run(profiles, columnar, spec, RetryConfig(2))
    draws = columnar.fault_draws()
    grp_T, grp_rid = columnar.fault_layout()
    injector = FaultInjector(spec)
    assert {key[1:] for key in draws.keys[1:]} >= {("drop", 0),
                                                   ("timeout", 0),
                                                   ("drop", 1)}
    assert _filled(draws) > 0
    for row, group in zip(*np.nonzero(~np.isnan(draws.values))):
        if row == 0:
            assert draws.values[row, group] == 2.0
            continue
        seed, channel, attempt = draws.keys[row]
        assert seed == spec.seed
        assert draws.values[row, group] == injector._draw(
            channel, int(grp_rid[group]), int(grp_T[group]), attempt)


def test_filled_entries_equal_the_seed_string_draws(lowering):
    """Independently of the injector: a filled cell of an attempt-0 or a
    retry row is ``random.Random`` seeded with the key's string."""
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, timeout_probability=0.2,
                     seed=11)
    _run(profiles, columnar, spec, RetryConfig(2))
    draws = columnar.fault_draws()
    grp_T, grp_rid = columnar.fault_layout()
    rng = np.random.default_rng(3)
    attempts = set()
    for row in range(1, len(draws.keys)):
        filled = np.flatnonzero(~np.isnan(draws.values[row]))
        seed, channel, attempt = draws.keys[row]
        if filled.size:
            attempts.add(min(attempt, 1))
        for group in rng.permutation(filled)[:25].tolist():
            key = (f"{seed}:{channel}:{int(grp_rid[group])}:"
                   f"{int(grp_T[group])}:{attempt}")
            assert draws.values[row, group] == random.Random(key).random()
    assert attempts == {0, 1}


def test_only_sent_probes_are_drawn(lowering):
    profiles, columnar = lowering
    results = _run(profiles, columnar,
                   FaultSpec(failure_probability=0.3, seed=11))
    picks = sum(r.probes_used + r.probes_failed for r in results)
    draws = columnar.fault_draws()
    assert [key[1:] for key in draws.keys[1:]] == [("drop", 0)]
    assert 0 < _filled(draws) <= picks
    assert _filled(draws) < columnar.grp_rid.size


def test_repeated_block_draws_nothing_new(lowering, monkeypatch):
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, seed=11)
    first = _run(profiles, columnar, spec, RetryConfig(1))
    draws = columnar.fault_draws()
    before = draws.values.copy()

    def no_new_draw(row, group):
        raise AssertionError(f"draw ({row}, {group}) computed twice")

    monkeypatch.setattr(draws, "_draw", no_new_draw)
    second = _run(profiles, columnar, spec, RetryConfig(1))
    assert [r.gc for r in second] == [r.gc for r in first]
    assert np.array_equal(draws.values, before, equal_nan=True)


def test_shard_engine_shares_the_table(lowering, monkeypatch):
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, seed=11)
    policy, preemptive = parse_policy_spec("S-EDF(P)")
    block = _run(profiles, columnar, spec)[0]
    draws = columnar.fault_draws()
    monkeypatch.setattr(draws, "_draw", lambda row, group: 1 / 0)
    federated = federated_run(
        profiles, _CONFIG.epoch, _CONFIG.budget_vector, policy,
        preemptive=preemptive, shards=3, faults=spec, columnar=columnar)
    assert federated.result.gc == block.gc


def test_a_gather_draws_what_is_unfilled_once(lowering, monkeypatch):
    _profiles, columnar = lowering
    draws = columnar.fault_draws()
    row = draws.row(11, "drop")
    rows = np.array([row, row, row])
    groups = np.array([0, 1, 0])
    assert np.isnan(draws.values[row, :2]).all()
    drawn = []
    draw = draws._draw
    monkeypatch.setattr(
        draws, "_draw",
        lambda row, group: drawn.append((row, group)) or draw(row, group))
    values = draws.gather(rows, groups)
    assert sorted(drawn) == [(row, 0), (row, 1)]
    assert not np.isnan(values).any()
    assert np.array_equal(values, draws.values[row, groups])
    # A second gather reads the table and draws nothing.
    assert np.array_equal(draws.gather(rows, groups), values)
    assert len(drawn) == 2
    # The sentinel row is always there and never beats a probability.
    assert (draws.gather(np.zeros(3, dtype=np.int64), groups) == 2.0).all()
