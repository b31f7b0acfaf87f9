"""The block kernel's fault plane: an attempt-0 draw table, and the lane
injector for everything else.

Draws are keyed on ``(seed, channel, resource, chronon, attempt)`` —
independent of probe order — so the plane computes only the first-attempt
draws its picks actually read, caches them on the lowering as ``(seed,
channel)`` rows, and must still agree bit for bit with
:meth:`FaultInjector._draw`. A recorded trace and a retry are the lane's
own :meth:`FaultInjector.decide`: a sweep that needs neither decides
nothing scalar, and a run that needs them adds no row to the table.
"""

import random

import numpy as np
import pytest

from repro.core import BudgetVector
from repro.experiments import ExperimentConfig, make_instance
from repro.experiments.faults import fault_sweep
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryConfig,
)
from repro.online.registry import parse_policy_spec
from repro.runtime.server import PROBE_OK, PROBE_THROTTLED
from repro.simulation import run_online
from repro.simulation.batch import FaultLane, run_block
from repro.simulation.columnar import ColumnarInstance

from tests.conformance.engines import assert_agree, observe

_CONFIG = ExperimentConfig(
    epoch_length=40, num_resources=12, num_profiles=16, intensity=4.0,
    window=6, budget=2, repetitions=1, grouping="overlap", seed=5)

_POLICIES = ("S-EDF(P)", "MRSF(NP)", "M-EDF(P)")


@pytest.fixture
def lowering():
    _trace, profiles = make_instance(_CONFIG, 0)
    return profiles, ColumnarInstance.build(profiles, _CONFIG.epoch)


def _run(profiles, columnar, spec, retry=None, budget=None):
    lanes = []
    for label in _POLICIES:
        policy, preemptive = parse_policy_spec(label)
        lanes.append((policy, preemptive, budget or _CONFIG.budget_vector,
                      0, FaultLane(spec, retry)))
    return run_block(profiles, _CONFIG.epoch, lanes, columnar=columnar)


def _filled(draws) -> int:
    return int(np.count_nonzero(~np.isnan(draws.values[1:])))


@pytest.fixture
def decides(monkeypatch):
    """How many times any FaultInjector decided, counted from here on."""
    calls = [0]
    decide = FaultInjector.decide

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return decide(self, *args, **kwargs)

    monkeypatch.setattr(FaultInjector, "decide", counted)
    return calls


def test_filled_entries_equal_the_injector_draws(lowering):
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, timeout_probability=0.2,
                     seed=11)
    _run(profiles, columnar, spec, RetryConfig(2))
    draws = columnar.fault_draws()
    grp_T, grp_rid = columnar.fault_layout()
    injector = FaultInjector(spec)
    assert draws.keys[1:] == [(11, "drop"), (11, "timeout")]
    assert _filled(draws) > 0
    for row, group in zip(*np.nonzero(~np.isnan(draws.values))):
        if row == 0:
            assert draws.values[row, group] == 2.0
            continue
        seed, channel = draws.keys[row]
        assert seed == spec.seed
        assert draws.values[row, group] == injector._draw(
            channel, int(grp_rid[group]), int(grp_T[group]), 0)


def test_filled_entries_equal_the_seed_string_draws(lowering):
    """Independently of the injector: a filled cell is ``random.Random``
    seeded with the key's string, at attempt 0."""
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, timeout_probability=0.2,
                     seed=11)
    _run(profiles, columnar, spec, RetryConfig(2))
    draws = columnar.fault_draws()
    grp_T, grp_rid = columnar.fault_layout()
    rng = np.random.default_rng(3)
    for row in range(1, len(draws.keys)):
        filled = np.flatnonzero(~np.isnan(draws.values[row]))
        assert filled.size
        seed, channel = draws.keys[row]
        for group in rng.permutation(filled)[:25].tolist():
            key = (f"{seed}:{channel}:{int(grp_rid[group])}:"
                   f"{int(grp_T[group])}:0")
            assert draws.values[row, group] == random.Random(key).random()


def test_only_sent_probes_are_drawn(lowering):
    profiles, columnar = lowering
    results = _run(profiles, columnar,
                   FaultSpec(failure_probability=0.3, seed=11))
    picks = sum(r.probes_used + r.probes_failed for r in results)
    draws = columnar.fault_draws()
    assert draws.keys[1:] == [(11, "drop")]
    assert 0 < _filled(draws) <= picks
    assert _filled(draws) < columnar.grp_rid.size


def test_retries_and_a_recording_lane_add_no_row(lowering):
    """The stale channel and every retry are the injector's: the table
    holds the attempt-0 drop and timeout rows of the spec, nothing else."""
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, timeout_probability=0.2,
                     stale_probability=0.3, seed=11)
    recorder = FaultInjector(spec)
    policy, preemptive = parse_policy_spec("S-EDF(P)")
    budget = BudgetVector(6)
    lanes = [(policy, preemptive, budget, 0,
              FaultLane(recorder, RetryConfig(2))),
             (policy, preemptive, budget, 0,
              FaultLane(spec, RetryConfig(2)))]
    recorded, plain = run_block(profiles, _CONFIG.epoch, lanes,
                                columnar=columnar)
    assert recorded.retries == plain.retries > 0
    assert any(record.stale for record in recorder.trace)
    assert columnar.fault_draws().keys[1:] == [(11, "drop"),
                                               (11, "timeout")]


def test_a_sweep_decides_nothing_scalar(decides):
    fault_sweep("smoke", workers=1)
    assert decides[0] == 0


def test_a_recording_lane_decides_every_pick(lowering, decides):
    profiles, columnar = lowering
    recorder = FaultInjector(FaultSpec(failure_probability=0.3, seed=11))
    policy, preemptive = parse_policy_spec("S-EDF(P)")
    result, = run_block(profiles, _CONFIG.epoch,
                        [(policy, preemptive, _CONFIG.budget_vector, 0,
                          FaultLane(recorder))], columnar=columnar)
    assert decides[0] == len(recorder.trace) == (result.probes_used
                                                 + result.probes_failed)


def test_a_firing_retry_is_decided_by_the_injector(lowering, decides):
    profiles, columnar = lowering
    spec = FaultSpec(failure_probability=0.3, seed=11)
    results = _run(profiles, columnar, spec, RetryConfig(1),
                   BudgetVector(6))
    assert sum(r.retries for r in results) > 0
    assert decides[0] > sum(r.retries for r in results)


def _blocked_retries(trace, params, budget, max_retries):
    """Failed picks whose next retry the breaker refused, read off a
    trace: a chronon's records are its breaker updates in order, and a
    retry loop that stops short with budget left stopped at the
    breaker."""
    breaker = CircuitBreaker(*params)
    blocked = 0
    by_chronon = {}
    for record in trace:
        by_chronon.setdefault(record.chronon, []).append(record)
    for T, records in by_chronon.items():
        last = {}
        for record in records:
            if record.status == PROBE_OK:
                breaker.record_success(record.resource_id)
            else:
                breaker.record_failure(record.resource_id, T)
            last[record.resource_id] = record
        if len(records) >= budget:
            continue
        blocked += sum(
            1 for r, record in last.items()
            if record.status != PROBE_OK and record.attempt < max_retries
            and breaker.is_blocked(r, T))
    return blocked


def test_throttled_and_breaker_blocked_retries_match_the_reference():
    _trace, profiles = make_instance(_CONFIG, 0)
    spec = FaultSpec(failure_probability=0.5, max_probes_per_chronon=2,
                     seed=0)
    params = (2, 2, 2.0, 8)
    budget = BudgetVector(3)
    policy, preemptive = parse_policy_spec("S-EDF(P)")
    ref_inj, ref_brk = FaultInjector(spec), CircuitBreaker(*params)
    ref = run_online(profiles, _CONFIG.epoch, budget, policy,
                     preemptive=preemptive, faults=ref_inj,
                     retry=RetryConfig(2), breaker=ref_brk,
                     engine="reference")
    blk_inj, blk_brk = FaultInjector(spec), CircuitBreaker(*params)
    policy, preemptive = parse_policy_spec("S-EDF(P)")
    blk, = run_block(profiles, _CONFIG.epoch,
                     [(policy, preemptive, budget, 0,
                       FaultLane(blk_inj, RetryConfig(2), blk_brk))])
    assert any(record.attempt >= 1 and record.status == PROBE_THROTTLED
               for record in ref_inj.trace)
    assert _blocked_retries(ref_inj.trace, params, 3, 2) > 0
    assert_agree(observe(blk, blk_inj, blk_brk),
                 observe(ref, ref_inj, ref_brk))


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
