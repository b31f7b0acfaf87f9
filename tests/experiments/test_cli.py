"""Tests for the repro-experiments CLI."""

import inspect
from itertools import takewhile

import pytest

import repro.cli
from repro.cli import (
    _EXPERIMENTS,
    _TAKES_ENGINE,
    _runner,
    build_parser,
    main,
)
from repro.experiments.reporting import tables


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "default"

    def test_scale_option(self):
        args = build_parser().parse_args(["fig4", "--scale", "smoke"])
        assert args.scale == "smoke"

    def test_csv_flag(self):
        args = build_parser().parse_args(["fig8", "--csv"])
        assert args.csv

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_is_refused(self, workers, capsys):
        with pytest.raises(SystemExit) as refusal:
            build_parser().parse_args(["fig8", "--workers", workers])
        assert refusal.value.code == 2
        assert "argument --workers" in capsys.readouterr().err
        assert build_parser().parse_args(
            ["fig8", "--workers", "2"]).workers == 2

    @pytest.mark.parametrize("seconds, accepted", [
        ("-1", None), ("nan", None), ("inf", None), ("0", 0.0),
        ("0.1", 0.1)])
    def test_tick_interval_is_finite_and_non_negative(self, seconds,
                                                      accepted, capsys):
        argv = ["serve", "--tick-interval", seconds]
        if accepted is not None:
            assert build_parser().parse_args(argv).tick_interval == accepted
            return
        with pytest.raises(SystemExit) as refusal:
            build_parser().parse_args(argv)
        assert refusal.value.code == 2
        assert "argument --tick-interval" in capsys.readouterr().err

    @pytest.mark.parametrize("port, accepted", [
        ("70000", None), ("65536", None), ("-5", None), ("http", None),
        ("0", 0), ("8642", 8642), ("65535", 65535)])
    def test_port_is_in_range(self, port, accepted, capsys):
        argv = ["serve", "--port", port]
        if accepted is not None:
            assert build_parser().parse_args(argv).port == accepted
            return
        with pytest.raises(SystemExit) as refusal:
            build_parser().parse_args(argv)
        assert refusal.value.code == 2
        assert "argument --port" in capsys.readouterr().err


class TestMain:
    def test_table1_smoke(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "mean_gc" in output
        assert "S-EDF(NP)" in output
        assert "configuration" in output

    def test_fig8_smoke_table(self, capsys):
        assert main(["fig8", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "budget" in output
        assert "gained completeness" in output

    def test_fig8_smoke_csv(self, capsys):
        assert main(["fig8", "--scale", "smoke", "--csv"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("# Figure 8")
        assert "budget,S-EDF(NP)" in output

    def test_panel_header_names_the_engine(self, capsys):
        assert main(["fig8", "--scale", "smoke", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# Figure 8 — gained completeness",
                             "# engine=batch fell_back=0 blocks=2"]
        # table1 times each of its 6 policies over 2 repetitions alone:
        # one one-lane block per run.
        assert main(["table1", "--scale", "smoke"]) == 0
        assert capsys.readouterr().out.startswith(
            "# engine=solo fell_back=0 blocks=12\n")

    def test_shared_block_blanks_the_runtime_column(self, capsys):
        assert main(["table1", "--scale", "smoke", "--csv"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert main(["table1", "--scale", "smoke", "--csv",
                     "--engine", "batch"]) == 0
        blocked = capsys.readouterr().out.splitlines()
        assert blocked[1] == "# engine=batch fell_back=0 blocks=2"
        for timed_row, blocked_row in zip(timed[3:9], blocked[3:9]):
            assert float(timed_row.rsplit(",", 1)[1]) > 0.0
            assert blocked_row == timed_row.rsplit(",", 1)[0] + ","

    def test_fig7_two_panels(self, capsys):
        assert main(["fig7", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Figure 7(1)" in output
        assert "Figure 7(2)" in output

    def test_table1_csv(self, capsys):
        assert main(["table1", "--scale", "smoke", "--csv"]) == 0
        output = capsys.readouterr().out
        assert "policy,mean_gc" in output

    def test_stats_subcommand(self, capsys):
        assert main(["stats", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "instance statistics" in output
        assert "rank(P)" in output

    def test_churn_reports_doomed_at_birth(self, capsys):
        # Late joiners lose t-intervals whose deadline preceded their
        # registration; the panel says how many, next to "expired".
        assert main(["churn", "--scale", "smoke", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split(",")
        at = header.index("completed")
        assert header[at:at + 4] == ["completed", "expired",
                                     "doomed_at_birth", "dropped"]
        rows = [dict(zip(header, line.split(","))) for line in takewhile(
            lambda line: not line.startswith("#"), lines[2:])]
        assert float(rows[0]["join_spread"]) == 0.0   # everyone at T=0
        assert rows[0]["doomed_at_birth"] == "0"
        assert any(int(row["doomed_at_birth"]) > 0 for row in rows[1:])
        assert all(int(row["doomed_at_birth"]) <= int(row["expired"])
                   + int(row["dropped"]) for row in rows)


class TestResultsRenderOnce:
    """What a terminal shows is what ``--output`` writes, table for
    table: one ``tables()`` list feeds the text and CSV printouts and
    the files."""

    @pytest.fixture
    def stems(self, monkeypatch):
        made = []

        def recording(name, result):
            result_tables = tables(name, result)
            made.extend(table.stem for table in result_tables)
            return result_tables

        monkeypatch.setattr(repro.cli, "tables", recording)
        return made

    @staticmethod
    def _run(argv, directory, capsys):
        assert main([*argv, "--output", str(directory)]) == 0
        printed = capsys.readouterr().out.splitlines(keepends=True)
        assert printed[-1] == f"[wrote {len(list(directory.iterdir()))} " \
            f"files under {directory}]\n"
        return printed[:-1]

    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS) + ["stats"])
    def test_stdout_is_the_files(self, experiment, stems, tmp_path,
                                 capsys):
        directory = tmp_path / "csv"
        printed = self._run([experiment, "--scale", "smoke", "--csv"],
                            directory, capsys)
        assert sorted(path.name for path in directory.iterdir()) == sorted(
            f"{stem}.{ext}" for stem in stems for ext in ("csv", "txt"))
        assert "".join(line for line in printed
                       if not line.startswith("#")) == "".join(
            (directory / f"{stem}.csv").read_text() for stem in stems)

        stems.clear()
        directory = tmp_path / "text"
        printed = self._run([experiment, "--scale", "smoke"], directory,
                            capsys)
        assert "".join(printed) == "".join(
            (directory / f"{stem}.txt").read_text() + "\n"
            for stem in stems)

    def test_every_table_reaches_the_files(self, tmp_path, capsys):
        assert main(["churn", "--scale", "smoke",
                     "--output", str(tmp_path)]) == 0
        rows = (tmp_path / "churn.csv").read_text()
        assert rows.startswith("join_spread,leave_probability,")
        config = (tmp_path / "churn_config.csv").read_text()
        assert config.startswith("parameter,value\n")
        assert (tmp_path / "churn_config.txt").exists()
        assert main(["stats", "--scale", "smoke", "--csv",
                     "--output", str(tmp_path)]) == 0
        assert "rank(P)," in (tmp_path / "stats.csv").read_text()
        capsys.readouterr()


class TestEngineFlag:
    """``--engine`` means one thing — what runs the online policy runs —
    and every experiment takes every value of it."""

    #: No online run to re-route: ``offline`` compares solvers. It takes
    #: the flag and names no engine.
    ENGINELESS = ("offline",)

    # 'all' once: it is the sum of the rows before it.
    @pytest.mark.parametrize("experiment, engine", [
        (experiment, engine) for experiment in sorted(_EXPERIMENTS)
        for engine in ("batch", "solo", "reference")] + [("all", "batch")])
    def test_every_experiment_takes_every_engine(self, experiment, engine,
                                                 capsys):
        assert main([experiment, "--scale", "smoke",
                     "--engine", engine]) == 0
        named = [line for line in capsys.readouterr().out.splitlines()
                 if "engine=" in line]
        assert named or experiment in self.ENGINELESS
        assert all(f"engine={engine}" in line for line in named), named

    @pytest.mark.parametrize("engine", ["fast", "rebuild", "proxy"])
    def test_retired_names_are_refused_by_the_parser(self, engine, capsys):
        with pytest.raises(SystemExit) as refusal:
            main(["fig8", "--scale", "smoke", "--engine", engine])
        assert refusal.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestDispatchTable:
    """The table names its runners and what each takes as literals (so
    ``serve`` and ``--help`` import no experiment); held here to the
    functions themselves."""

    def test_flag_sets_match_the_runner_signatures(self):
        takes = {"workers": set(), "engine": set()}
        for name in _EXPERIMENTS:
            parameters = inspect.signature(_runner(name)).parameters
            assert "scale" == next(iter(parameters)), name
            for flag, names in takes.items():
                if flag in parameters:
                    names.add(name)
        assert takes["workers"] == set(_EXPERIMENTS)
        assert takes["engine"] == _TAKES_ENGINE

    def test_help_names_the_default_engine(self):
        from repro.experiments.harness import DEFAULT_ENGINE
        text = " ".join(build_parser().format_help().split())
        assert f"Default: '{DEFAULT_ENGINE}' for the GC sweeps" in text
