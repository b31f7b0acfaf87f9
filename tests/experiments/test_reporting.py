"""Tests for ASCII/CSV reporting: the tables a result renders as."""

import pytest

from repro.experiments import ExperimentConfig, sweep
from repro.experiments.reporting import Table, render_table, tables

_CONFIG = ExperimentConfig(
    epoch_length=50, num_resources=8, num_profiles=6, intensity=5.0,
    window=4, repetitions=1, grouping="indexed", seed=3)


@pytest.fixture(scope="module")
def sweep_result():
    return sweep("Demo", _CONFIG, "budget", [1, 2],
                 policies=["S-EDF(P)", "MRSF(P)"])


@pytest.fixture(scope="module")
def solo_sweep():
    return sweep("Demo", _CONFIG, "budget", [1, 2],
                 policies=["S-EDF(P)", "MRSF(P)"], engine="solo")


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_floats_formatted(self):
        text = render_table(["x"], [[0.123456]])
        assert "0.1235" in text

    def test_column_padding(self):
        text = render_table(["long-header", "b"], [[1, 2]])
        rows = text.splitlines()
        assert rows[0].index("| b") == rows[2].index("| 2")


class TestSweepTable:
    def test_contains_parameter_and_policies(self, sweep_result):
        text = tables("demo", sweep_result)[0].text()
        assert "budget" in text
        assert "S-EDF(P)" in text
        assert "MRSF(P)" in text

    def test_one_row_per_value(self, sweep_result):
        lines = tables("demo", sweep_result)[0].text().splitlines()
        # note + title + header + separator + 2 data rows
        assert len(lines) == 6
        assert lines[0].startswith("# engine=batch fell_back=0 blocks=")
        assert lines[1] == "Demo — gained completeness"

    def test_runtime_metric_title(self, solo_sweep):
        gc, runtime = tables("demo", solo_sweep)
        assert "runtime" in runtime.text()
        assert "runtime" not in gc.title


class TestSweepCsv:
    def test_header_row(self, sweep_result):
        lines = tables("demo", sweep_result)[0].csv().splitlines()
        assert lines[0] == "budget,S-EDF(P),MRSF(P)"

    def test_data_rows(self, sweep_result):
        lines = tables("demo", sweep_result)[0].csv().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert 0.0 <= float(first[1]) <= 1.0


class TestTables:
    def test_a_runtime_series_only_when_timed_one_per_policy(
            self, sweep_result, solo_sweep):
        assert sweep_result.shared_block and not solo_sweep.shared_block
        assert [table.stem for table in tables("f", sweep_result)] == \
            ["f_gc"]
        assert [table.stem for table in tables("f", solo_sweep)] == \
            ["f_gc", "f_runtime"]

    def test_both_renderings_read_the_same_rows(self):
        table = Table("t", "T", ["a", "b"], [["x", 0.5], ["y", ""]],
                      note="engine=solo fell_back=0 blocks=0")
        assert table.csv() == "a,b\nx,0.500000\ny,\n"
        assert table.text() == "# engine=solo fell_back=0 blocks=0\n" \
            + render_table(["a", "b"], table.rows, title="T")
        assert Table("t", "T", ["a"], [[1]]).text().startswith("T\n")
