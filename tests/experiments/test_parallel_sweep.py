"""Parallel sweep executor: process-pool results equal serial results.

The pool farms out (setting, repetition) cells; since instance
generation is fully seeded per cell, every gained-completeness number
must come back identical to the serial path (wall-clock runtimes are
measured per process and naturally differ).
"""

from repro.experiments import ExperimentConfig
from repro.experiments.harness import run_setting, sweep

_CONFIG = ExperimentConfig(
    epoch_length=20, num_resources=6, num_profiles=8, intensity=4.0,
    window=4, repetitions=3, grouping="overlap", seed=99)

_POLICIES = ("S-EDF(P)", "MRSF(P)")


def _gc_map(outcome):
    return {label: po.gc_values for label, po in outcome.outcomes.items()}


class TestParallelExecution:
    def test_run_setting_workers_matches_serial(self):
        serial = run_setting(_CONFIG, _POLICIES, workers=1)
        parallel = run_setting(_CONFIG, _POLICIES, workers=2)
        assert _gc_map(parallel) == _gc_map(serial)

    def test_sweep_workers_matches_serial(self):
        serial = sweep("s", _CONFIG, "budget", [1, 2], _POLICIES,
                       workers=1)
        parallel = sweep("s", _CONFIG, "budget", [1, 2], _POLICIES,
                         workers=4)
        assert parallel.x_values == serial.x_values
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert _gc_map(parallel_run) == _gc_map(serial_run)

    def test_sweep_workers_includes_offline(self):
        serial = sweep("s", _CONFIG, "budget", [1], _POLICIES,
                       include_offline=True, workers=1)
        parallel = sweep("s", _CONFIG, "budget", [1], _POLICIES,
                         include_offline=True, workers=2)
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert _gc_map(parallel_run) == _gc_map(serial_run)

    def test_workers_one_takes_serial_path(self):
        serial = run_setting(_CONFIG, _POLICIES)
        degenerate = run_setting(_CONFIG, _POLICIES, workers=1)
        assert _gc_map(degenerate) == _gc_map(serial)
