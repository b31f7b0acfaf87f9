"""The streamed lowering gives the same run wherever its windows are cut.

:meth:`ColumnarInstance.windows` hands the activity index to the chronon
loops a window at a time; the cap (``columnar._WINDOW_ENTRIES``) is a
constant nobody sets, so these tests move it: 1 cuts at every chronon, 7
and 64 cut through EIs and t-intervals (and leave chronons above the
cap as windows of their own), ``10**9`` is a single window.
Every cut must reproduce the reference simulator probe for probe —
schedule, report, fault counters, breaker end state, the recorded
:class:`~repro.faults.model.FaultRecord` trace — for block lanes and for the
K-shard federation, whose slices are cut per window too. This is the
only suite that drives fault lanes across window cuts.

The second half pins what the streaming is for: the memory of a
lowering the run builds itself follows the window, not the epoch.
"""

import logging
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import _fork

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    Profile,
    ProfileSet,
    TInterval,
)
from repro.experiments import ExperimentConfig, make_instance
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.experiments.faults import fault_sweep
from repro.experiments.harness import sweep
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    Outage,
    RetryConfig,
)
from repro.online.registry import parse_policy_spec
from repro.simulation import columnar as columnar_module
from repro.simulation import run_online
from repro.simulation import batch as batch_module
from repro.simulation.batch import FaultLane, run_block
from repro.simulation.churn import run_churned
from repro.simulation.columnar import BatchUnsupported, ColumnarInstance
from repro.simulation.shard import federated_run

from tests.conformance.cases import ROW_POLICIES as POLICIES
from tests.conformance.cases import ROWS
from tests.conformance.engines import assert_agree, observe
from tests.conformance.lowering import array_bytes, cpus

CAPS = (1, 7, 64, 10 ** 9)

CONFIG = ExperimentConfig(
    epoch_length=40, num_resources=8, num_profiles=12, max_rank=3,
    intensity=5.0, budget=2, window=6, repetitions=1, grouping="overlap",
    seed=17)


def _drops():
    return (FaultSpec(failure_probability=0.3, timeout_probability=0.1,
                      seed=7),
            RetryConfig(max_retries=2),
            CircuitBreaker(failure_threshold=2, cooldown=3))


def _outage():
    return (FaultSpec(outages=(Outage(2, 5, 14), Outage(5, 20, None)),
                      max_probes_per_chronon=1, seed=3), None, None)


def _recording():
    return (FaultInjector(FaultSpec(failure_probability=0.25,
                                    stale_probability=0.3, seed=5)),
            RetryConfig(max_retries=1), None)


#: Fault layers as factories: breakers and recording injectors are
#: per-run state, so every run gets its own.
FAULTS = {"none": lambda: (None, None, None), "drops": _drops,
          "outage": _outage, "recording": _recording}


def lowered(profiles, epoch, cap) -> ColumnarInstance:
    with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
        return ColumnarInstance.build(profiles, epoch)


@pytest.fixture(scope="module")
def instance():
    _trace, profiles = make_instance(CONFIG, 0)
    return profiles


@pytest.fixture(scope="module")
def reference(instance):
    """Reference-simulator runs, one per (fault layer, policy), lazily."""
    runs = {}

    def run(fault: str, label: str, case: str = "generated",
            budget=CONFIG.budget_vector, profiles=instance,
            epoch=CONFIG.epoch):
        key = (fault, label, case)
        if key not in runs:
            policy, preemptive = parse_policy_spec(label)
            faults, retry, breaker = FAULTS[fault]()
            result = run_online(profiles, epoch, budget, policy,
                                preemptive=preemptive, faults=faults,
                                retry=retry, breaker=breaker,
                                engine="reference")
            runs[key] = (result, (_injector(faults), breaker))
        return runs[key]

    return run


def _injector(faults):
    return faults if isinstance(faults, FaultInjector) else None


def _block(profiles, epoch, col, fault, budget):
    """All sixteen policies as the lanes of one block over ``col``."""
    lanes, sides = [], []
    for label in POLICIES:
        policy, preemptive = parse_policy_spec(label)
        faults, retry, breaker = FAULTS[fault]()
        layer = FaultLane(faults, retry, breaker) \
            if fault != "none" else None
        lanes.append((policy, preemptive, budget, 0, layer))
        sides.append((_injector(faults), breaker))
    return run_block(profiles, epoch, lanes, columnar=col), sides


class TestWindowsCutAnywhere:
    #: The CPUs the class runs on: on one every streamed window is built
    #: in this process, on two a producer builds it (see the subclass).
    CPUS = 1

    @pytest.fixture(autouse=True)
    def _cpus(self):
        with cpus(self.CPUS):
            yield

    def test_the_caps_cut_where_they_claim(self, instance):
        shapes = {}
        for cap in CAPS:
            wins = list(lowered(instance, CONFIG.epoch, cap).windows())
            shapes[cap] = [(win.act_e.size, win.n_act) for win in wins]
            # Within the cap unless a single chronon, and greedy: the
            # next window's first chronon would not have fitted.
            for win, after in zip(wins, wins[1:] + [None]):
                assert win.act_e.size <= cap or win.n_act == 1
                if after is not None:
                    assert win.act_e.size + after.act_indptr[1] > cap
        (total, chronons), = shapes[10 ** 9]
        assert total > 10 * 64
        assert all(sum(size for size, _n in shape) == total
                   and sum(n for _size, n in shape) == chronons
                   for shape in shapes.values())
        assert len(shapes[1]) == chronons
        # Cap 7 meets both: chronons above the cap, each a window of its
        # own, and windows spanning several quiet chronons.
        assert any(size > 7 for size, _n in shapes[7])
        assert any(n > 1 for _size, n in shapes[7])
        assert 1 < len(shapes[64]) < len(shapes[7])

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("cap", CAPS)
    def test_block_equals_reference(self, instance, reference, cap, fault):
        col = lowered(instance, CONFIG.epoch, cap)
        results, sides = _block(instance, CONFIG.epoch, col, fault,
                                CONFIG.budget_vector)
        for label, result, side in zip(POLICIES, results, sides):
            expected, expected_side = reference(fault, label)
            assert_agree(observe(result, *side),
                         observe(expected, *expected_side))
        # A second block over the same lowering walks the windows again,
        # and one over a lowering of its own streams them.
        again, sides = _block(instance, CONFIG.epoch, col, fault,
                              CONFIG.budget_vector)
        with mock.patch.object(columnar_module, "_WINDOW_ENTRIES", cap):
            streamed, streamed_sides = _block(
                instance, CONFIG.epoch, None, fault, CONFIG.budget_vector)
        for results, sides in ((again, sides), (streamed, streamed_sides)):
            for label, result, side in zip(POLICIES, results, sides):
                expected, expected_side = reference(fault, label)
                assert_agree(observe(result, *side),
                             observe(expected, *expected_side))

    # The federation books reliable runs: the fault-free layer only.
    @pytest.mark.parametrize("fault", ["none"])
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("cap", CAPS)
    def test_federation_equals_reference(self, instance, reference, cap,
                                         shards, fault):
        col = lowered(instance, CONFIG.epoch, cap)
        for label in ("M-EDF(P)", "M-EDF(NP)", "S-EDF(NP)", "MRSF(NP)",
                      "COVERAGE(P)", "ANTI-MRSF(NP)"):
            policy, preemptive = parse_policy_spec(label)
            expected, _side = reference(fault, label)
            # Over the lowering handed in, and over one of its own.
            for given in (col, None):
                with mock.patch.object(columnar_module, "_WINDOW_ENTRIES",
                                       cap):
                    federated = federated_run(
                        instance, CONFIG.epoch, CONFIG.budget_vector,
                        policy, preemptive=preemptive, shards=shards,
                        columnar=given)
                assert_agree(observe(federated.result), observe(expected))
                assert sum(load.probes_routed
                           for load in federated.loads) \
                    == expected.probes_used

    @pytest.mark.parametrize("cap", CAPS)
    def test_non_constant_budget(self, instance, reference, cap):
        budget = BudgetVector(1, overrides={
            T: T % 4 for T in range(3, CONFIG.epoch_length, 3)})
        col = lowered(instance, CONFIG.epoch, cap)
        results, sides = _block(instance, CONFIG.epoch, col, "drops",
                                budget)
        for label, result, side in zip(POLICIES, results, sides):
            expected, expected_side = reference("drops", label, "bursty",
                                                budget)
            assert_agree(observe(result, *side),
                         observe(expected, *expected_side))
        policy, preemptive = parse_policy_spec("M-EDF(NP)")
        federated = federated_run(instance, CONFIG.epoch, budget, policy,
                                  preemptive=preemptive, shards=3,
                                  columnar=col)
        expected, _side = reference("none", "M-EDF(NP)", "bursty", budget)
        assert list(federated.result.schedule.probes()) == \
            list(expected.schedule.probes())

    @pytest.mark.parametrize("cap", CAPS)
    def test_hand_built_edges(self, reference, cap):
        """No activity at all; EIs opening past the epoch; a quiet gap
        between windows that an EI does not span."""
        def eta(*eis):
            return TInterval(ExecutionInterval(*ei) for ei in eis)

        epoch = Epoch(12)
        cases = {
            "no activity": ProfileSet([Profile([eta((0, 13, 15))]),
                                       Profile([])]),
            "opens late": ProfileSet([
                Profile([eta((0, 14, 15))]),
                Profile([eta((1, 2, 3), (0, 13, 13)), eta((1, 9, 14))]),
                Profile([eta((0, 1, 12), (1, 3, 3)), eta((2, 11, 12))]),
            ]),
        }
        for name, profiles in cases.items():
            col = lowered(profiles, epoch, cap)
            if name == "no activity":
                assert list(col.windows()) == []
            budget = BudgetVector(1)
            results, _sides = _block(profiles, epoch, col, "none", budget)
            for label, result in zip(POLICIES, results):
                expected, _side = reference("none", label, name, budget,
                                            profiles, epoch)
                assert_agree(observe(result), observe(expected))
            policy, preemptive = parse_policy_spec("MRSF(P)")
            federated = federated_run(profiles, epoch, budget, policy,
                                      preemptive=preemptive, shards=2,
                                      columnar=col)
            expected, _side = reference("none", "MRSF(P)", name, budget,
                                        profiles, epoch)
            assert federated.result.report == expected.report
            assert list(federated.result.schedule.probes()) == \
                list(expected.schedule.probes())


class TestWindowsCutAnywhereProduced(TestWindowsCutAnywhere):
    """The same runs with each streamed window built by a producer."""

    CPUS = 2


# ----------------------------------------------------------------------
# The producer: the same windows, no child left, no output twice
# ----------------------------------------------------------------------

class _Boom(ValueError):
    """Raised mid-run by a test: a type no library code raises."""


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes, counted."""
    made = []
    fork = os.fork

    def counting():
        made.append(1)
        return fork()

    monkeypatch.setattr(_fork.os, "fork", counting)
    return made


def _snapshot(window) -> dict:
    """Copies of a window's arrays, its key columns included."""
    columns = {name: value.copy() for name, value in vars(window).items()
               if isinstance(value, np.ndarray)}
    columns.update((key, column.copy())
                   for key, column in window.hi_static.items())
    return columns


def _stream_then(before):
    """A ``ColumnarInstance._stream`` that calls ``before(i)`` before it
    hands out window ``i``."""
    stream = ColumnarInstance._stream

    def streaming(col, keys, held=None):
        for i, window in enumerate(stream(col, keys, held)):
            before(i)
            yield window

    return streaming


class TestProducer:
    KEYS = tuple(ROWS.values())

    @pytest.mark.parametrize("cap", [1, 7, 64])
    def test_produced_windows_equal_built_ones(self, instance, cap, forks):
        col = lowered(instance, CONFIG.epoch, cap)
        with cpus(1):
            built = [_snapshot(win) for win in col.windows(self.KEYS)]
        assert forks == []
        with cpus(2):
            produced = [_snapshot(win) for win in col.windows(self.KEYS)]
        assert forks == [1] and len(built) == len(produced) > 1
        for ours, theirs in zip(produced, built):
            assert ours.keys() == theirs.keys()
            for name, column in theirs.items():
                assert ours[name].dtype == column.dtype, name
                assert np.array_equal(ours[name], column), name
        assert col.windows_built == 2 * len(built)
        assert col._producer["ring_bytes"] == 2 * max(
            win["act_e"].size for win in built) * (16 + 8 * len(self.KEYS))
        _assert_no_child_left()

    def test_a_consumer_that_raises_leaves_no_child(self, instance,
                                                    monkeypatch, forks):
        capture, calls = batch_module._capture, []

        def capturing(*args):
            calls.append(1)
            if len(calls) == 5:
                raise _Boom
            return capture(*args)

        monkeypatch.setattr(batch_module, "_capture", capturing)
        with cpus(2), mock.patch.object(columnar_module,
                                        "_WINDOW_ENTRIES", 7):
            with pytest.raises(_Boom):
                _block(instance, CONFIG.epoch, None, "none",
                       CONFIG.budget_vector)
        assert forks == [1]
        _assert_no_child_left()

    def test_a_generator_closed_early_leaves_no_child(self, instance):
        col = lowered(instance, CONFIG.epoch, 7)
        with cpus(2):
            windows = col.windows(self.KEYS)
            next(windows)
            next(windows)
            windows.close()
            assert col.windows_built == 2
            _assert_no_child_left()
            # Dropped unclosed, the generator is closed all the same.
            windows = col.windows()
            next(windows)
            del windows
        assert col.windows_built == 3
        _assert_no_child_left()

    def test_a_producer_exception_keeps_its_type(self, instance,
                                                 monkeypatch, caplog):
        def refuse(i):
            if i == 2:
                raise BatchUnsupported("refused by the producer")

        monkeypatch.setattr(ColumnarInstance, "_stream",
                            _stream_then(refuse))
        policy, preemptive = parse_policy_spec("MRSF(P)")
        with cpus(2), mock.patch.object(columnar_module,
                                        "_WINDOW_ENTRIES", 7):
            with pytest.raises(BatchUnsupported, match="by the producer"):
                _block(instance, CONFIG.epoch, None, "none",
                       CONFIG.budget_vector)
            _assert_no_child_left()
            # So a batch run still falls back to the reference.
            with caplog.at_level(logging.INFO, logger="repro.simulation"):
                result = run_online(instance, CONFIG.epoch,
                                    CONFIG.budget_vector, policy,
                                    preemptive=preemptive)
        assert "refused by the producer" in caplog.text
        expected = run_online(instance, CONFIG.epoch, CONFIG.budget_vector,
                              policy, preemptive=preemptive,
                              engine="reference")
        assert_agree(observe(result), observe(expected))
        _assert_no_child_left()

    def test_a_buffered_print_appears_once(self):
        script = textwrap.dedent("""
            import sys
            from unittest import mock

            from repro import _fork
            from repro.experiments import ExperimentConfig, make_instance
            from repro.online.registry import parse_policy_spec
            from repro.simulation import columnar
            from repro.simulation.shard import federated_run

            config = ExperimentConfig(epoch_length=40, num_resources=8,
                                      num_profiles=12, intensity=5.0,
                                      budget=2, window=6, seed=17)
            _trace, profiles = make_instance(config, 0)
            policy, preemptive = parse_policy_spec("M-EDF(P)")
            _fork.usable_cpus = lambda: 2
            # Written to the pipe at exit, not before the fork.
            assert not sys.stdout.write_through
            print("printed before the run")
            with mock.patch.object(columnar, "_WINDOW_ENTRIES", 7):
                run = federated_run(profiles, config.epoch,
                                    config.budget_vector, policy,
                                    preemptive=preemptive, shards=2)
            assert run.result.extras["lowering_windows"] > 2
            """)
        root = Path(__file__).resolve().parents[2]
        env = {name: value for name, value in os.environ.items()
               if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(root / "src")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "printed before the run\n"

    def test_window_seconds_is_the_wait(self, instance, monkeypatch):
        nap = 0.02
        col = lowered(instance, CONFIG.epoch, 64)
        with cpus(2):
            # A slow producer: the consumer waits for every window.
            monkeypatch.setattr(ColumnarInstance, "_stream",
                                _stream_then(lambda _i: time.sleep(nap)))
            count = sum(1 for _win in col.windows())
            assert count > 3
            assert col.window_seconds > 0.8 * nap * count
            monkeypatch.undo()
            # A slow consumer: each window is ready when asked for.
            waited = col.window_seconds
            for _win in col.windows():
                time.sleep(nap)
        assert col.window_seconds - waited < nap * count / 2
        assert col.windows_built == 2 * count

    def test_windows_built_counts_the_windows_consumed(self, instance):
        col = lowered(instance, CONFIG.epoch, 7)
        with cpus(2):
            windows = col.windows()
            for _ in range(3):
                next(windows)
            # The producer is a window ahead; the count is what came out.
            assert col.windows_built == 3
            windows.close()
        assert col.windows_built == 3

    def test_kept_lowerings_and_sweeps_fork_no_producer(self, instance,
                                                       forks):
        """A lowering handed in keeps its index, as the harness's cached
        lowerings and churn plans do, and a one-instance sweep runs in
        the caller: none of them forks, on two CPUs and many windows."""
        one = CONFIG.with_(num_profiles=60)
        policy, preemptive = parse_policy_spec("MRSF(P)")
        churn = ChurnConfig(epoch_length=30, num_resources=6, intensity=2.0,
                            num_clients=4, profiles_per_client=2,
                            join_spread=0.5, leave_probability=0.5, seed=3)
        with cpus(2), mock.patch.object(columnar_module,
                                        "_WINDOW_ENTRIES", 7):
            sweep("s", one, "budget", [1, 2])
            fault_sweep(config=one, rates=(0.0, 0.3))
            initial, plan, epoch = build_churn_workload(churn)
            for _ in range(2):
                run_churned(initial, epoch, BudgetVector(2), policy, plan,
                            preemptive=preemptive)
            assert plan._lowering.columnar.windows_built > 1
            assert forks == []
            # The control: a run over a lowering of its own forks one.
            run_online(instance, CONFIG.epoch, CONFIG.budget_vector,
                       policy, preemptive=preemptive)
        assert forks == [1]
        _assert_no_child_left()


# ----------------------------------------------------------------------
# Memory follows the window
# ----------------------------------------------------------------------

def _traced_peak(config, count: int = 2) -> tuple[int, ColumnarInstance]:
    """Peak traced bytes (NumPy reports its buffers) of running
    ``config``'s instance on four shards, over a lowering the run builds
    itself, on ``count`` CPUs; and that lowering. With a producer the
    peak counts its ring (a shared mapping, which tracemalloc does not
    see) and the producer's own traced peak above what it inherited."""
    _trace, profiles = make_instance(config, 0)
    profiles.columns()
    policy, preemptive = parse_policy_spec("M-EDF(P)")
    built = []
    build = ColumnarInstance.build

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    tracemalloc.start()
    try:
        with cpus(count), mock.patch.object(ColumnarInstance, "build", spy):
            federated_run(profiles, config.epoch, config.budget_vector,
                          policy, preemptive=preemptive, shards=4)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (col,) = built
    assert (col._producer is not None) == (count > 1)
    if col._producer is not None:
        peak += col._producer["ring_bytes"] + col._producer["peak_traced"]
    return peak, col


class TestMemoryFollowsTheWindow:
    #: Equal in every parameter but the EI width: nine times the
    #: activity entries over 1.4 times the EIs (wider windows overlap
    #: into more t-intervals).
    NARROW = ExperimentConfig(
        epoch_length=120, num_resources=40, num_profiles=2500,
        intensity=12.0, budget=4, window=5, repetitions=1, seed=29)
    WIDE = NARROW.with_(window=40)

    def test_peak_does_not_follow_the_epoch(self):
        # The pair at 1 000 profiles: few enough EIs that a window's
        # build, not the O(EIs) columns, is half the narrow peak.
        smaller = self.NARROW.with_(num_profiles=1000)
        narrow_peak, narrow = _traced_peak(smaller)
        wide_peak, wide = _traced_peak(smaller.with_(window=40))
        assert narrow.E < wide.E < 1.5 * narrow.E
        narrow_entries = int(narrow._grp_size.sum())
        wide_entries = int(wide._grp_size.sum())
        assert narrow_entries > columnar_module._WINDOW_ENTRIES
        assert wide_entries > 6 * narrow_entries
        assert wide_peak < 1.3 * narrow_peak

    def test_in_process_peak_does_not_follow_the_epoch(self):
        # The same pair on one CPU: every window built in this process.
        smaller = self.NARROW.with_(num_profiles=1000)
        narrow_peak, narrow = _traced_peak(smaller, 1)
        wide_peak, wide = _traced_peak(smaller.with_(window=40), 1)
        assert int(wide._grp_size.sum()) > 6 * int(narrow._grp_size.sum())
        assert wide_peak < 1.3 * narrow_peak

    def test_no_entry_array_outlives_the_run(self):
        _peak, col = _traced_peak(self.WIDE)
        assert col.windows_built > 1 and col._index is None
        # Ten int64 columns' worth per EI, state and group — and nothing
        # per entry: one entry-sized int64 column alone would be more.
        held = array_bytes(col)
        assert held <= 80 * (col.E + col.S + col.grp_rid.size)
        assert held < 8 * int(col._grp_size.sum())
