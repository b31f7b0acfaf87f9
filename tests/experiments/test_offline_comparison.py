"""The offline solver-comparison experiment: results and parallelism.

Mirrors the online parallel-sweep contract: process-pool execution must
return exactly the serial gained-completeness numbers (instances are
regenerated from per-cell seeds and merged in serial order). That the
reference Local-Ratio engine changes only runtimes, never results, is
``tests/properties/test_prop_offline_fast.py``'s to show.
"""

from repro.experiments import OFFLINE_SOLVER_LABELS, offline_comparison


def _gc_map(outcome):
    return {label: po.gc_values for label, po in outcome.outcomes.items()}


class TestOfflineComparison:
    def test_structure_and_labels(self):
        result = offline_comparison("smoke")
        assert result.parameter == "num_profiles"
        assert len(result.x_values) == len(result.runs)
        for run in result.runs:
            assert tuple(run.outcomes) == OFFLINE_SOLVER_LABELS
            # The P^[1], C=1 regime the paper evaluates offline in.
            assert run.config.window == 0
            assert run.config.budget == 1

    def test_local_ratio_competitive_with_greedy(self):
        # The decomposition should not lose to the plain greedy order on
        # aggregate (they share the exact feasibility machinery).
        result = offline_comparison("smoke")
        local_ratio = sum(result.series("local-ratio"))
        greedy = sum(result.series("greedy"))
        assert local_ratio >= greedy - 1e-9

    def test_workers_match_serial(self):
        serial = offline_comparison("smoke")
        parallel = offline_comparison("smoke", workers=2)
        assert parallel.x_values == serial.x_values
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert _gc_map(parallel_run) == _gc_map(serial_run)

    def test_registered_in_cli(self):
        from repro.cli import _runner
        assert _runner("offline") is offline_comparison
