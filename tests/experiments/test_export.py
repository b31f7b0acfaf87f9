"""Tests for the ``--output`` files: ``<stem>.csv`` and ``<stem>.txt`` for
each table :func:`~repro.experiments.reporting.tables` makes of a result."""

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig, run_setting, sweep
from repro.experiments.figures import FigurePair
from repro.experiments.reporting import tables, write_tables

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


def _names(written):
    return {path.name for path in written}


class TestExportSweep:
    def test_writes_csv_and_table(self, sweep_result, tmp_path):
        written = write_tables(tables("fig_demo", sweep_result), tmp_path)
        assert _names(written) == {"fig_demo_gc.csv", "fig_demo_gc.txt"}
        csv_text = (tmp_path / "fig_demo_gc.csv").read_text()
        assert csv_text.startswith("budget,S-EDF(P)")

    def test_multiple_metrics(self, tmp_path):
        """A sweep timed one run per policy has a runtime series too."""
        solo = sweep("demo", _CONFIG, "budget", [1, 2],
                     policies=["S-EDF(P)"], engine="solo")
        written = write_tables(tables("fig_demo", solo), tmp_path)
        assert _names(written) == {
            "fig_demo_gc.csv", "fig_demo_gc.txt",
            "fig_demo_runtime.csv", "fig_demo_runtime.txt"}

    def test_creates_directory(self, sweep_result, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_tables(tables("x", sweep_result), target)
        assert target.is_dir()


class TestExportRunOutcome:
    def test_writes_a_csv_and_a_text_file_per_table(self, run_outcome,
                                                    tmp_path):
        written = write_tables(tables("table1", run_outcome), tmp_path)
        assert _names(written) == {
            "table1.csv", "table1.txt",
            "table1_config.csv", "table1_config.txt"}

    def test_csv_contains_policies(self, run_outcome, tmp_path):
        write_tables(tables("table1", run_outcome), tmp_path)
        text = (tmp_path / "table1.csv").read_text()
        assert "MRSF(P)" in text
        assert text.splitlines()[0] == \
            "policy,mean_gc,stdev_gc,mean_runtime_s"

    def test_runtime_column_only_when_timed_alone(self, run_outcome,
                                                   tmp_path):
        """A shared block's even split is not a per-policy runtime: the
        column stays empty, as the CLI prints it."""
        assert run_outcome.shared_block
        write_tables(tables("batch", run_outcome), tmp_path)
        rows = (tmp_path / "batch.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)
        solo = run_setting(_CONFIG, policies=["S-EDF(P)", "MRSF(P)"],
                           engine="solo")
        write_tables(tables("solo", solo), tmp_path)
        rows = (tmp_path / "solo.csv").read_text().splitlines()[1:]
        assert all(float(row.rsplit(",", 1)[1]) > 0 for row in rows)

    def test_config_dump(self, run_outcome, tmp_path):
        write_tables(tables("table1", run_outcome), tmp_path)
        text = (tmp_path / "table1_config.txt").read_text()
        assert "budget C" in text
        assert "budget C,1" in (tmp_path / "table1_config.csv").read_text()


class TestExportResultDispatch:
    def test_sweep_dispatch(self, sweep_result, tmp_path):
        # A batch sweep's runtimes are block shares: gc only.
        assert sweep_result.shared_block
        written = write_tables(tables("fig", sweep_result), tmp_path)
        assert _names(written) == {"fig_gc.csv", "fig_gc.txt"}
        solo = sweep("demo", _CONFIG, "budget", [1, 2],
                     policies=["S-EDF(P)"], engine="solo")
        written = write_tables(tables("fig", solo), tmp_path)
        assert len(written) == 4  # gc + runtime, csv + txt each

    def test_outcome_dispatch(self, run_outcome, tmp_path):
        written = write_tables(tables("t1", run_outcome), tmp_path)
        assert len(written) == 4  # policies + configuration

    def test_pair_dispatch(self, sweep_result, tmp_path):
        pair = FigurePair(left=sweep_result, right=sweep_result)
        written = write_tables(tables("fig5", pair), tmp_path)
        assert _names(written) == {
            f"fig5_{panel}_gc.{ext}" for panel in ("panel1", "panel2")
            for ext in ("csv", "txt")}

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            tables("x", object())


class TestCliOutputFlag:
    def test_output_writes_files(self, tmp_path, capsys):
        assert main(["table1", "--scale", "smoke",
                     "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert "wrote" in capsys.readouterr().out
