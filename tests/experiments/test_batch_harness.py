"""Batch-engine harness path: per-instance blocks, fall-backs and worker
invariance.

The harness runs the sweep cells sharing a generation key as the lanes
of one columnar block — one block per generated instance, by default,
for every GC sweep; this file pins down that the blocked path (serial
and on a forked pool of any size) reproduces exactly the reference
simulator's numbers, that a repetition is a block of its own (and a
pool job of its own), that a lane without a score row falls back to
the reference alone, counted, that the pool returns, raises and reaps
like a plain loop would, that only the runtime-reporting
experiments still time each policy in a run of its own (``"solo"``: a
one-lane block per policy), and that
:func:`~repro.experiments.instances.generation_key` captures precisely
the generative config fields.
"""

import os
import time

import pytest

from repro.core import ProfileSet, Schedule
from repro.experiments import ExperimentConfig, figure5, harness, table1
from repro.experiments.config import ENGINES
from repro.experiments.faults import (
    FAULT_POLICY_VARIANTS,
    fault_sweep,
    run_fault_setting,
)
from repro.experiments.harness import (
    DEFAULT_ENGINE,
    DEFAULT_POLICIES,
    make_instance,
    run_setting,
    sweep,
)
from repro.online import registry
from repro.online.registry import parse_policy_spec
from repro.runtime import MonitoringProxy
from repro.simulation import run_online
from repro.simulation import batch as batch_module
from repro.experiments import instances
from repro.experiments.instances import InstanceCache, generation_key

from tests.conformance.cases import LoudMRSF
from tests.conformance.engines import assert_same_gc, gc_map

_CONFIG = ExperimentConfig(
    epoch_length=20, num_resources=6, num_profiles=8, intensity=4.0,
    window=4, repetitions=3, grouping="overlap", seed=99)

#: RANDOM's row weighs the ``noise`` feature, no other policy's does.
_POLICIES = ("S-EDF(P)", "MRSF(P)", "RANDOM(NP)")


@pytest.fixture
def loud_registered(monkeypatch):
    """``LOUD-MRSF``, a policy without a row, under a name the harness
    resolves (a forked pool worker inherits it)."""
    monkeypatch.setitem(registry._FACTORIES, "LOUD-MRSF", LoudMRSF)


class TestBatchHarness:
    def test_run_setting_batch_matches_fast(self):
        fast = run_setting(_CONFIG, _POLICIES, engine="reference")
        batch = run_setting(_CONFIG, _POLICIES, engine="batch")
        assert gc_map(batch) == gc_map(fast)

    def test_sweep_batch_matches_fast(self):
        fast = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                     engine="reference")
        batch = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                      engine="batch")
        assert batch.x_values == fast.x_values
        for fast_run, batch_run in zip(fast.runs, batch.runs):
            assert gc_map(batch_run) == gc_map(fast_run)

    def test_sweep_batch_includes_offline(self):
        fast = sweep("s", _CONFIG, "budget", [1], _POLICIES,
                     include_offline=True, engine="reference")
        batch = sweep("s", _CONFIG, "budget", [1], _POLICIES,
                      include_offline=True, engine="batch")
        for fast_run, batch_run in zip(fast.runs, batch.runs):
            assert gc_map(batch_run) == gc_map(fast_run)

    def test_sweep_batch_worker_count_invariant(self):
        """Chunking groups cells by generated instance; any worker count
        must reproduce the serial blocked results bit for bit."""
        serial = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                       engine="batch")
        for workers in (2, 3):
            pooled = sweep("s", _CONFIG, "budget", [1, 2, 3], _POLICIES,
                           engine="batch", workers=workers)
            assert pooled.x_values == serial.x_values
            for serial_run, pooled_run in zip(serial.runs, pooled.runs):
                assert gc_map(pooled_run) == gc_map(serial_run)

    def test_sweep_non_budget_axis_blocks_per_value(self):
        """Sweeping a generative field gives each value its own block —
        still identical to the reference."""
        fast = sweep("s", _CONFIG, "window", [3, 4], _POLICIES,
                     engine="reference")
        batch = sweep("s", _CONFIG, "window", [3, 4], _POLICIES,
                      engine="batch")
        for fast_run, batch_run in zip(fast.runs, batch.runs):
            assert gc_map(batch_run) == gc_map(fast_run)


@pytest.fixture
def reference_runs(monkeypatch):
    """Counts the reference runs made in this process: each is one live
    proxy run to the end of its epoch."""
    ran = []
    original = MonitoringProxy.run

    def counting(self, until=None):
        ran.append(self)
        return original(self, until)

    monkeypatch.setattr(MonitoringProxy, "run", counting)
    return ran


@pytest.fixture
def solo_blocks(monkeypatch):
    """Lane counts of the blocks the harness makes in this process."""
    lanes_of = []
    original = harness.run_block

    def counting(profiles, epoch, lanes, **kwargs):
        lanes_of.append(len(lanes))
        return original(profiles, epoch, lanes, **kwargs)

    monkeypatch.setattr(harness, "run_block", counting)
    return lanes_of


class TestDefaultEngine:
    """No ``engine=`` argument means the columnar block kernel."""

    def _sweep(self, policies=DEFAULT_POLICIES, **kwargs):
        return sweep("s", _CONFIG, "budget", [1, 2, 3], policies, **kwargs)

    def test_sweep_is_served_by_blocks_alone(self, reference_runs):
        result = self._sweep(workers=1)
        assert reference_runs == []
        assert result.engine == DEFAULT_ENGINE == "batch"
        assert all(run.shared_block for run in result.runs)
        assert result.fell_back == 0
        assert_same_gc(self._sweep, result, workers=1)
        assert len(reference_runs) == (3 * _CONFIG.repetitions
                                  * len(DEFAULT_POLICIES))

    def test_the_ablation_lineup_is_served_by_blocks_alone(
            self, reference_runs):
        """The paper's policies beside the naive baselines, RANDOM
        among them: every lane rides its instance's block."""
        outcome = run_setting(_CONFIG, policies=(
            "MRSF(P)", "M-EDF(P)", "S-EDF(P)", "RANDOM", "FCFS",
            "COVERAGE", "LFF"), workers=1)
        assert reference_runs == []
        assert (outcome.fell_back, outcome.blocks) == (
            0, _CONFIG.repetitions)

    def test_run_setting_default_is_blocked_too(self, reference_runs):
        outcome = run_setting(_CONFIG, workers=1)
        assert reference_runs == []
        assert (outcome.engine, outcome.fell_back) == ("batch", 0)

    def test_offline_rides_along(self, reference_runs):
        result = self._sweep(include_offline=True, workers=1)
        assert reference_runs == []
        assert result.fell_back == 0
        assert_same_gc(self._sweep, result, include_offline=True,
                       workers=1)

    def test_worker_pool(self):
        result = self._sweep(workers=2)
        assert (result.engine, result.fell_back) == ("batch", 0)
        assert_same_gc(self._sweep, result, workers=2)

    def test_a_rowless_policy_goes_to_the_reference_alone(
            self, reference_runs, loud_registered):
        """The policy without a row leaves its block; every other lane
        of the instance stays in it."""
        policies = DEFAULT_POLICIES + ("LOUD-MRSF(P)",)
        result = self._sweep(policies, workers=1)
        runs = 3 * _CONFIG.repetitions
        assert len(reference_runs) == result.fell_back == runs == 9
        assert result.blocks == _CONFIG.repetitions
        fast = self._sweep(policies, engine="reference")
        assert fast.engine == "reference" and fast.fell_back == 0
        for run, fast_run in zip(result.runs, fast.runs):
            assert gc_map(run) == gc_map(fast_run)

    def test_fell_back_counts_runs_landing_on_the_reference(
            self, loud_registered):
        policies = ("MRSF(P)", "LOUD-MRSF", "S-EDF(NP)")
        result = sweep("s", _CONFIG, "budget", [2], policies)
        assert result.fell_back == _CONFIG.repetitions
        assert result.blocks == _CONFIG.repetitions
        served = sweep("s", _CONFIG, "budget", [2], ("MRSF(P)", "RANDOM"))
        assert (served.fell_back, served.blocks) == (0, _CONFIG.repetitions)
        reference = sweep("s", _CONFIG, "budget", [2], policies,
                          engine="reference")
        assert (reference.fell_back, reference.blocks) == (0, 0)
        assert gc_map(result.runs[0]) == gc_map(reference.runs[0])

    def test_runtime_reports_time_each_policy_alone(self, reference_runs,
                                                    solo_blocks):
        outcome = table1("smoke")
        assert outcome.engine == "solo" and not outcome.shared_block
        assert solo_blocks == [1] * (len(outcome.outcomes)
                                     * outcome.config.repetitions)
        assert len({policy.runtime_values
                    for policy in outcome.outcomes.values()}) > 1
        del solo_blocks[:]
        pair = figure5("smoke")
        for panel in (pair.left, pair.right):
            assert panel.engine == "solo"
            runtimes = {panel.runs[0].mean_runtime(label)
                        for label in DEFAULT_POLICIES}
            assert len(runtimes) == len(DEFAULT_POLICIES)
        assert solo_blocks and set(solo_blocks) == {1}
        assert reference_runs == []

    def test_block_shares_are_even_not_per_policy(self):
        outcome = run_setting(_CONFIG.with_(repetitions=1))
        shares = {policy.runtime_values
                  for policy in outcome.outcomes.values()}
        assert len(shares) == 1


@pytest.fixture
def inline_pool(monkeypatch):
    """Pools run in this process: the size and jobs of every pool the
    harness asks for."""
    record = {"sizes": [], "jobs": []}
    pool_map = harness._pool_map

    def inline(fn, jobs, size):
        if size >= 2:
            record["sizes"].append(size)
            record["jobs"].extend(jobs)
        return pool_map(fn, jobs, 1)

    monkeypatch.setattr(harness, "_pool_map", inline)
    return record


@pytest.fixture
def forks(monkeypatch):
    """The children this process forks."""
    forked = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(harness.os, "fork", counting)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def block_calls(monkeypatch):
    """Every ``(profiles, lanes, results)`` of the harness's run_block."""
    calls = []
    original = harness.run_block

    def spy(profiles, epoch, lanes, **kwargs):
        results = original(profiles, epoch, lanes, **kwargs)
        calls.append((profiles, list(lanes), results))
        return results

    monkeypatch.setattr(harness, "run_block", spy)
    return calls


class TestOneBlockPerInstance:
    """A repetition is a block; budgets, policies and rates are lanes."""

    def _assert_one_block_per_repetition(self, calls, config, lanes):
        assert len(calls) == config.repetitions
        for repetition, (profiles, lane_specs, _results) in \
                enumerate(calls):
            assert isinstance(profiles, ProfileSet)
            assert profiles is make_instance(config, repetition)[1]
            assert len(lane_specs) == lanes
            assert {spec[3] for spec in lane_specs} == {0}

    def test_budget_sweep(self, block_calls):
        budgets = [1, 2, 3, 4, 5]
        result = sweep("s", _CONFIG, "budget", budgets, workers=1)
        self._assert_one_block_per_repetition(
            block_calls, _CONFIG, len(DEFAULT_POLICIES) * len(budgets))
        assert result.blocks == _CONFIG.repetitions == 3
        # Every setting rode the same three passes.
        assert [run.blocks for run in result.runs] == [3] * len(budgets)
        fast = sweep("s", _CONFIG, "budget", budgets, engine="reference")
        assert (fast.blocks, fast.fell_back) == (0, result.fell_back)
        for run, fast_run in zip(result.runs, fast.runs):
            assert gc_map(run) == gc_map(fast_run)

    def test_fault_sweep(self, block_calls):
        config = _CONFIG.with_(budget=2)
        rates = (0.0, 0.2, 0.4)
        result = fault_sweep(config=config, rates=rates, workers=1)
        self._assert_one_block_per_repetition(
            block_calls, config, len(FAULT_POLICY_VARIANTS) * len(rates))
        assert result.blocks == 3
        fast = fault_sweep(config=config, rates=rates, engine="reference")
        assert (fast.blocks, fast.fell_back) == (0, result.fell_back)
        for run, fast_run in zip(result.runs, fast.runs):
            assert gc_map(run) == gc_map(fast_run)
        # Fault statistics lane by lane, against a reference run of its
        # own.
        failed = 0
        for profiles, lane_specs, results in block_calls:
            for (policy, preemptive, budget, _inst, fault), lane in \
                    zip(lane_specs, results):
                fault = fault.fresh()
                alone = run_online(
                    profiles, config.epoch, budget, policy,
                    preemptive=preemptive, faults=fault.faults,
                    retry=fault.retry, breaker=fault.breaker,
                    engine="reference")
                assert (lane.gc, lane.probes_failed, lane.retries,
                        lane.resources_quarantined) == (
                    alone.gc, alone.probes_failed, alone.retries,
                    alone.resources_quarantined)
                failed += lane.probes_failed
        assert failed > 0

    def test_a_later_sweep_reuses_the_lowering(self, monkeypatch):
        built = []
        original = instances.ColumnarInstance.build

        def counting(profiles, epoch):
            built.append(profiles)
            return original(profiles, epoch)

        monkeypatch.setattr(instances.ColumnarInstance, "build", counting)
        monkeypatch.setattr(instances, "_ACTIVE_CACHE", InstanceCache())
        sweep("s", _CONFIG, "budget", [1, 2], workers=1)
        assert len(built) == _CONFIG.repetitions
        fault_sweep(config=_CONFIG.with_(budget=2), rates=(0.1,), workers=1)
        assert len(built) == _CONFIG.repetitions

    def test_ten_repetitions_stay_warm_from_one_sweep_to_the_next(
            self, monkeypatch):
        """The paper's protocol draws ten instances per setting: the
        second sweep finds every one in memory, with its lowering."""
        cache = InstanceCache()
        monkeypatch.setattr(instances, "_ACTIVE_CACHE", cache)
        lowerings = []
        original = harness.run_block

        def spy(profiles, epoch, lanes, *, columnar=None):
            lowerings.append(columnar)
            return original(profiles, epoch, lanes, columnar=columnar)

        monkeypatch.setattr(harness, "run_block", spy)
        config = _CONFIG.with_(repetitions=10)
        sweep("s", config, "budget", [1, 2], ("MRSF(P)",), workers=1)
        assert cache.stats()["misses"] == 10
        first = lowerings[:]
        sweep("s", config, "budget", [1, 2], ("MRSF(P)",), workers=1)
        assert (cache.memory_hits, cache.misses) == (10, 10)
        assert len(first) == 10 and all(
            again is before for again, before in zip(lowerings[10:], first))

    def test_worker_chunks_split_by_repetition(self, inline_pool):
        """A one-parameter budget sweep is ``repetitions`` groups, so a
        pool has more than one chunk to hand out."""
        pooled = sweep("s", _CONFIG, "budget", [1, 2, 3, 4, 5], workers=4)
        chunks = [[cell_args[at] for at in indices]
                  for cell_args, _gkey, indices in inline_pool["jobs"]]
        assert len(chunks) == _CONFIG.repetitions
        for chunk in chunks:
            assert len({args[1] for args in chunk}) == 1
            assert sorted(args[0].budget for args in chunk) == \
                [1, 2, 3, 4, 5]
        serial = sweep("s", _CONFIG, "budget", [1, 2, 3, 4, 5], workers=1)
        assert pooled.blocks == serial.blocks == 3
        for run, serial_run in zip(pooled.runs, serial.runs):
            assert gc_map(run) == gc_map(serial_run)


def _usable_cpus(monkeypatch, count: int) -> None:
    """Make this process (and what it forks) see ``count`` usable
    CPUs."""
    monkeypatch.setattr(harness.os, "sched_getaffinity",
                        lambda _pid: set(range(count)), raising=False)


class TestAutomaticPool:
    """``workers=None`` is one worker per usable CPU, capped by the
    independent jobs — the generated instances of a sweep."""

    def test_one_usable_cpu_builds_no_pool(self, monkeypatch, inline_pool):
        _usable_cpus(monkeypatch, 1)
        sweep("s", _CONFIG, "budget", [1, 2])
        fault_sweep(config=_CONFIG.with_(budget=2), rates=(0.0, 0.3))
        run_setting(_CONFIG)
        assert inline_pool["sizes"] == []
        _usable_cpus(monkeypatch, 2)
        sweep("s", _CONFIG, "budget", [1, 2])
        assert inline_pool["sizes"] == [2]

    def test_one_instance_builds_no_pool(self, monkeypatch, inline_pool):
        _usable_cpus(monkeypatch, 4)
        sweep("s", _CONFIG.with_(repetitions=1), "budget", [1, 2, 3])
        assert inline_pool["sizes"] == []
        run_setting(_CONFIG)
        assert inline_pool["sizes"] == [_CONFIG.repetitions]

    def test_timed_runs_build_no_pool(self, monkeypatch, inline_pool):
        """Solo and reference runs report their own runtimes, so by
        default they run with no worker beside them; asked for, they
        pool like a batch sweep."""
        _usable_cpus(monkeypatch, 4)
        for engine in ("solo", "reference"):
            run_setting(_CONFIG, engine=engine)
            sweep("s", _CONFIG, "budget", [1, 2], engine=engine)
            run_fault_setting(_CONFIG.with_(budget=2), 0.3, engine=engine)
        assert inline_pool["sizes"] == []
        run_setting(_CONFIG, engine="solo", workers=2)
        assert inline_pool["sizes"] == [2]

    def test_a_pool_forks_whatever_asked_for_it(self, monkeypatch, forks):
        """A pool of N is the caller and N - 1 forked children."""
        _usable_cpus(monkeypatch, 2)
        sweep("s", _CONFIG, "budget", [1, 2])
        sweep("s", _CONFIG, "budget", [1, 2], workers=2)
        assert len(forks) == 2
        sweep("s", _CONFIG, "budget", [1, 2], workers=3)
        assert len(forks) == 4
        _assert_no_child_left()

    def test_a_pooled_fault_sweep_is_the_serial_one(self, monkeypatch,
                                                   loud_registered):
        _usable_cpus(monkeypatch, 2)
        config = _CONFIG.with_(budget=2)
        policies = ("MRSF(P)", "S-EDF(NP)", "LOUD-MRSF(NP)")
        pooled = fault_sweep(config=config, rates=(0.0, 0.3),
                             policies=policies)
        _assert_no_child_left()
        serial = fault_sweep(config=config, rates=(0.0, 0.3),
                             policies=policies, workers=1)
        assert pooled.fell_back == serial.fell_back \
            == 2 * _CONFIG.repetitions
        assert pooled.blocks == serial.blocks == _CONFIG.repetitions
        for label in policies:
            assert pooled.series(label) == serial.series(label)

    def test_a_forked_worker_keeps_the_parents_cache(self, monkeypatch):
        cache = InstanceCache()
        monkeypatch.setattr(instances, "_ACTIVE_CACHE", cache)
        make_instance(_CONFIG, 1)
        parent = cache.stats()
        (_caller, (pid, worker)) = harness._pool_map(
            _worker_cache_stats, [(_CONFIG, 0), (_CONFIG, 1)], 2)
        assert pid != os.getpid()
        assert worker["memory_hits"] == parent["memory_hits"] + 1
        assert worker["misses"] == parent["misses"] == 1

    def test_without_fork_the_default_is_serial_and_a_pool_is_refused(
            self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        monkeypatch.delattr(harness.os, "fork")
        default = sweep("s", _CONFIG, "budget", [1, 2])
        with pytest.raises(RuntimeError, match=r"workers=2 needs os\.fork"):
            sweep("s", _CONFIG, "budget", [1, 2], workers=2)
        monkeypatch.undo()
        serial = sweep("s", _CONFIG, "budget", [1, 2], workers=1)
        for run, serial_run in zip(default.runs, serial.runs):
            assert gc_map(run) == gc_map(serial_run)


def _worker_cache_stats(config, repetition):
    """A pool job: read one instance, then report the worker's pid and
    cache counters."""
    make_instance(config, repetition)
    return os.getpid(), instances.active_cache().stats()


class _Boom(ValueError):
    """Raised by a pool job: a type no library code raises."""


def _job_and_pid(job):
    return job, os.getpid()


def _raise_in(job, caller, where):
    """Return ``job``, or raise :class:`_Boom` when run in the caller
    (``where="caller"``) or in a child (``where="child"``)."""
    if (os.getpid() == caller) == (where == "caller"):
        raise _Boom(job)
    return job


def _exit_in_child(job, caller):
    """Return ``job`` in the caller; a child dies without a result."""
    if os.getpid() != caller:
        os._exit(3)
    return job


def _sleep_in_child(job, caller):
    """Raise :class:`_Boom` in the caller; a child sleeps."""
    if os.getpid() == caller:
        raise _Boom(job)
    time.sleep(30)
    return job


class TestForkPool:
    """``_pool_map`` is ``[fn(*job) for job in jobs]`` spread over the
    caller and ``size - 1`` forked children, and leaves no child
    behind."""

    def test_results_come_back_in_job_order(self):
        jobs = [(job,) for job in range(7)]
        pooled = harness._pool_map(_job_and_pid, jobs, 3)
        serial = harness._pool_map(_job_and_pid, jobs, 1)
        assert [job for job, _pid in pooled] == \
            [job for job, _pid in serial] == list(range(7))
        pids = [pid for _job, pid in pooled]
        # Each worker takes every third job, the caller the first.
        assert pids[0::3] == [os.getpid()] * 3
        assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
        assert len(set(pids)) == 3
        _assert_no_child_left()

    def test_job_zero_runs_in_the_caller(self):
        ((_job, pid),) = harness._pool_map(_job_and_pid, [(0,)], 2)
        assert pid == os.getpid()
        _assert_no_child_left()

    @pytest.mark.parametrize("where, raised", [("caller", 0), ("child", 1)])
    def test_an_exception_keeps_its_type(self, where, raised):
        jobs = [(job, os.getpid(), where) for job in range(4)]
        with pytest.raises(_Boom) as caught:
            harness._pool_map(_raise_in, jobs, 2)
        assert caught.value.args == (raised,)
        _assert_no_child_left()

    def test_a_busy_child_is_killed_when_the_caller_raises(self):
        started = time.perf_counter()
        with pytest.raises(_Boom):
            harness._pool_map(_sleep_in_child,
                              [(job, os.getpid()) for job in range(2)], 2)
        assert time.perf_counter() - started < 10
        _assert_no_child_left()

    def test_a_child_that_dies_without_a_result_is_an_error(self):
        with pytest.raises(RuntimeError, match="without a result"):
            harness._pool_map(_exit_in_child,
                              [(job, os.getpid()) for job in range(3)], 3)
        _assert_no_child_left()


@pytest.fixture
def epilogue_builds(monkeypatch):
    """Schedule groupings and breakdown counts made in this process."""
    made = {"grouped": 0, "counted": 0}
    group, read = Schedule.__getattr__, batch_module._Breakdown._read

    def grouping(self, name):
        made["grouped"] += name == "_chronons"
        return group(self, name)

    def counting(self):
        made["counted"] += self._table is None
        return read(self)

    monkeypatch.setattr(Schedule, "__getattr__", grouping)
    monkeypatch.setattr(batch_module._Breakdown, "_read", counting)
    return made


class TestResultsStayColumns:
    """A sweep keeps only GC and runtime, so a block's schedules and
    breakdowns are never built; reading one builds exactly that one."""

    def test_a_sweep_builds_nothing(self, epilogue_builds):
        sweep("s", _CONFIG, "budget", [1, 2, 3], workers=1)
        fault_sweep(config=_CONFIG.with_(budget=2), rates=(0.0, 0.3),
                    workers=1)
        assert epilogue_builds == {"grouped": 0, "counted": 0}

    def test_a_read_builds_once(self, epilogue_builds):
        _trace, profiles = make_instance(_CONFIG, 0)
        policy, preemptive = parse_policy_spec("MRSF(P)")
        result = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                            policy, preemptive=preemptive, engine="batch")
        assert epilogue_builds == {"grouped": 0, "counted": 0}
        assert result.probes_used == len(list(result.schedule.probes()))
        assert epilogue_builds == {"grouped": 1, "counted": 0}
        assert sum(c for c, _t in result.report.per_profile.values()) \
            == result.report.captured
        assert epilogue_builds == {"grouped": 1, "counted": 1}
        list(result.schedule.probes())
        dict(result.report.per_profile)
        assert epilogue_builds == {"grouped": 1, "counted": 1}


class TestGenerationKey:
    def test_budget_and_repetitions_do_not_perturb(self):
        base = generation_key(_CONFIG, 0, "poisson")
        assert generation_key(_CONFIG.with_(budget=7), 0,
                              "poisson") == base
        assert generation_key(_CONFIG.with_(repetitions=9), 0,
                              "poisson") == base

    def test_generative_fields_perturb(self):
        base = generation_key(_CONFIG, 0, "poisson")
        assert generation_key(_CONFIG.with_(seed=1), 0, "poisson") != base
        assert generation_key(_CONFIG.with_(window=5), 0,
                              "poisson") != base
        assert generation_key(_CONFIG, 1, "poisson") != base

    def test_a_disk_entry_serves_every_budget(self, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(
            _CONFIG.with_(budget=1), 0)
        reader = InstanceCache(cache_dir=tmp_path)
        reader.get_or_generate(_CONFIG.with_(budget=2), 0)
        assert (reader.disk_hits, reader.misses, reader.stores) == (1, 0, 0)
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_memory_cache_shares_across_budgets(self):
        cache = InstanceCache(max_entries=4)
        _trace_a, profiles_a = cache.get_or_generate(_CONFIG, 0)
        _trace_b, profiles_b = cache.get_or_generate(
            _CONFIG.with_(budget=7), 0)
        assert profiles_b is profiles_a


class TestOneExecutor:
    """Every engine runs through ``_run_one_block``; ``solo`` and
    ``reference`` give the GC values and ``fell_back`` counts they gave
    on their own per-cell path."""

    _GC = {
        "S-EDF(NP)": (1.0, 1.0, 0.8620689655172413),
        "MRSF(P)": (0.9629629629629629, 1.0, 0.8620689655172413),
        "M-EDF(P)": (0.9629629629629629, 1.0, 0.9655172413793104),
    }
    _FAULTY_GC = {
        "S-EDF(P)": (1.0, 0.9130434782608695, 1.0),
        "MRSF(NP)": (1.0, 0.9130434782608695, 1.0),
    }

    @pytest.mark.parametrize("engine", ["solo", "reference"])
    def test_gc_and_fell_back_are_unchanged(self, engine, monkeypatch):
        groups, columnar = [], []
        run_one_block = harness._run_one_block
        run_block = harness.run_block

        def spy(cell_args, gkey, indices, cells):
            groups.append(len(indices))
            return run_one_block(cell_args, gkey, indices, cells)

        def blocks(profiles, epoch, lanes, **kwargs):
            columnar.append((len(lanes), kwargs.get("columnar")))
            return run_block(profiles, epoch, lanes, **kwargs)

        monkeypatch.setattr(harness, "_run_one_block", spy)
        monkeypatch.setattr(harness, "run_block", blocks)
        plain = run_setting(_CONFIG, tuple(self._GC), engine=engine)
        faulty = run_fault_setting(_CONFIG.with_(budget=2), 0.3,
                                   policies=tuple(self._FAULTY_GC),
                                   engine=engine)
        assert groups == [1] * (2 * _CONFIG.repetitions)
        assert gc_map(plain) == self._GC
        assert gc_map(faulty) == self._FAULTY_GC
        assert (plain.fell_back, faulty.fell_back) == (0, 0)
        if engine == "solo":
            # One lane per block, each lowering its own instance.
            assert columnar == [(1, None)] * 5 * _CONFIG.repetitions
            assert (plain.blocks, faulty.blocks) == (9, 6)
        else:
            assert columnar == []
            assert (plain.blocks, faulty.blocks) == (0, 0)


class TestEngineNames:
    def test_an_unknown_engine_is_refused_before_any_work(
            self, monkeypatch):
        cache = InstanceCache()
        monkeypatch.setattr(instances, "_ACTIVE_CACHE", cache)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness.os, "fork", no_pool)
        for run in (lambda: run_setting(_CONFIG, engine="bogus"),
                    lambda: run_setting(_CONFIG, engine="bogus",
                                        workers=2),
                    lambda: fault_sweep(config=_CONFIG, rates=(0.1,),
                                        engine="bogus")):
            with pytest.raises(ValueError, match="'solo'"):
                run()
        assert cache.misses == 0

    def test_the_cli_offers_the_harness_engines(self):
        from repro.cli import build_parser

        (action,) = [action for action in build_parser()._actions
                     if "--engine" in action.option_strings]
        assert tuple(action.choices) == ENGINES == (
            "batch", "solo", "reference")
