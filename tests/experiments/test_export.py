"""Tests for result export (CSV/text files)."""

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig, run_setting, sweep
from repro.experiments.export import (
    export_result,
    export_run_outcome,
    export_sweep,
)
from repro.experiments.figures import FigurePair

_CONFIG = ExperimentConfig(
    epoch_length=50, num_resources=8, num_profiles=6, intensity=5.0,
    window=4, repetitions=1, grouping="indexed", seed=17)


@pytest.fixture(scope="module")
def sweep_result():
    return sweep("demo", _CONFIG, "budget", [1, 2],
                 policies=["S-EDF(P)"])


@pytest.fixture(scope="module")
def run_outcome():
    return run_setting(_CONFIG, policies=["S-EDF(P)", "MRSF(P)"])


class TestExportSweep:
    def test_writes_csv_and_table(self, sweep_result, tmp_path):
        written = export_sweep(sweep_result, tmp_path, "fig_demo")
        names = {path.name for path in written}
        assert names == {"fig_demo_gc.csv", "fig_demo_gc.txt"}
        csv_text = (tmp_path / "fig_demo_gc.csv").read_text()
        assert csv_text.startswith("budget,S-EDF(P)")

    def test_multiple_metrics(self, sweep_result, tmp_path):
        written = export_sweep(sweep_result, tmp_path, "fig_demo",
                               metrics=("gc", "runtime"))
        assert len(written) == 4

    def test_creates_directory(self, sweep_result, tmp_path):
        target = tmp_path / "nested" / "dir"
        export_sweep(sweep_result, target, "x")
        assert target.is_dir()


class TestExportRunOutcome:
    def test_writes_three_files(self, run_outcome, tmp_path):
        written = export_run_outcome(run_outcome, tmp_path, "table1")
        assert {path.name for path in written} == {
            "table1.csv", "table1.txt", "table1_config.txt"}

    def test_csv_contains_policies(self, run_outcome, tmp_path):
        export_run_outcome(run_outcome, tmp_path, "table1")
        text = (tmp_path / "table1.csv").read_text()
        assert "MRSF(P)" in text
        assert text.splitlines()[0] == \
            "policy,mean_gc,stdev_gc,mean_runtime_s"

    def test_runtime_column_only_when_timed_alone(self, run_outcome,
                                                   tmp_path):
        """A shared block's even split is not a per-policy runtime: the
        column stays empty, as the CLI prints it."""
        assert run_outcome.shared_block
        export_run_outcome(run_outcome, tmp_path, "batch")
        rows = (tmp_path / "batch.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)
        solo = run_setting(_CONFIG, policies=["S-EDF(P)", "MRSF(P)"],
                           engine="solo")
        export_run_outcome(solo, tmp_path, "solo")
        rows = (tmp_path / "solo.csv").read_text().splitlines()[1:]
        assert all(float(row.rsplit(",", 1)[1]) > 0 for row in rows)

    def test_config_dump(self, run_outcome, tmp_path):
        export_run_outcome(run_outcome, tmp_path, "table1")
        text = (tmp_path / "table1_config.txt").read_text()
        assert "budget C" in text


class TestExportResultDispatch:
    def test_sweep_dispatch(self, sweep_result, tmp_path):
        # A batch sweep's runtimes are block shares: gc only.
        assert sweep_result.shared_block
        written = export_result("fig", sweep_result, tmp_path)
        assert {path.name for path in written} == {"fig_gc.csv",
                                                   "fig_gc.txt"}
        solo = sweep("demo", _CONFIG, "budget", [1, 2],
                     policies=["S-EDF(P)"], engine="solo")
        written = export_result("fig", solo, tmp_path)
        assert len(written) == 4  # gc + runtime, csv + txt each

    def test_outcome_dispatch(self, run_outcome, tmp_path):
        written = export_result("t1", run_outcome, tmp_path)
        assert len(written) == 3

    def test_pair_dispatch(self, sweep_result, tmp_path):
        pair = FigurePair(left=sweep_result, right=sweep_result)
        written = export_result("fig5", pair, tmp_path)
        panel_names = {path.name for path in written}
        assert any("panel1" in name for name in panel_names)
        assert any("panel2" in name for name in panel_names)

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            export_result("x", object(), tmp_path)


class TestCliOutputFlag:
    def test_output_writes_files(self, tmp_path, capsys):
        assert main(["table1", "--scale", "smoke",
                     "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert "wrote" in capsys.readouterr().out
