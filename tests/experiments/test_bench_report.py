"""Bench-report regression gate: speedup extraction and thresholds."""

import json

import pytest

from repro.bench_report import collect_speedups, load_baseline, main


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestCollectSpeedups:
    def test_nested_paths(self):
        report = {
            "speedup": 2.0,
            "scales": {"target": {"speedup": 3.5,
                                  "noise": "x"}},
            "runs": [{"speedup": 1.5}, {"other": 1}],
        }
        assert collect_speedups(report) == {
            "speedup": 2.0,
            "scales.target.speedup": 3.5,
            "runs[0].speedup": 1.5,
        }

    def test_non_numeric_speedup_ignored(self):
        assert collect_speedups({"speedup": "fast"}) == {}


class TestGate:
    def test_ok_within_tolerance(self, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        _write(tmp_path / "BENCH_x.json", {"speedup": 2.9})
        _write(base / "BENCH_x.json", {"speedup": 3.0})
        code = main(["--dir", str(tmp_path), "--baseline-dir", str(base),
                     "--tolerance", "0.2"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        _write(tmp_path / "BENCH_x.json", {"speedup": 2.0})
        _write(base / "BENCH_x.json", {"speedup": 3.0})
        code = main(["--dir", str(tmp_path), "--baseline-dir", str(base),
                     "--tolerance", "0.2"])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_new_speedup_passes(self, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        _write(tmp_path / "BENCH_x.json", {"speedup": 1.0})
        code = main(["--dir", str(tmp_path), "--baseline-dir", str(base)])
        assert code == 0
        assert "new" in capsys.readouterr().out

    def test_baseline_key_missing_from_report_is_listed(self, tmp_path,
                                                        capsys):
        # A scale the current run skipped must show, not vanish: the
        # exit code stays 0, but the row and the count are printed.
        base = tmp_path / "base"
        base.mkdir()
        _write(tmp_path / "BENCH_x.json",
               {"scales": {"tiny": {"speedup": 2.0}}})
        _write(base / "BENCH_x.json",
               {"scales": {"tiny": {"speedup": 2.0},
                           "target": {"speedup": 6.0}}})
        code = main(["--dir", str(tmp_path), "--baseline-dir", str(base)])
        assert code == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if "scales.target.speedup" in line)
        assert row.split()[-3:] == ["6.00", "-", "missing"]
        assert "1 baseline speedup(s) missing" in out

    def test_no_reports_is_ok(self, tmp_path):
        assert main(["--dir", str(tmp_path)]) == 0

    def test_unreadable_report_warns_but_passes(self, tmp_path, capsys):
        (tmp_path / "BENCH_bad.json").write_text("{not json",
                                                 encoding="utf-8")
        assert main(["--dir", str(tmp_path)]) == 0
        assert "unreadable" in capsys.readouterr().err

    def test_missing_baseline_file_is_none(self, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        assert load_baseline("BENCH_x.json", tmp_path, base) is None


class TestCli:
    def test_bench_report_subcommand(self, tmp_path, monkeypatch, capsys):
        pytest.importorskip("repro.cli")
        from repro.cli import main as cli_main
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "BENCH_x.json", {"speedup": 1.0})
        assert cli_main(["bench-report"]) == 0
        assert "BENCH_x.json" in capsys.readouterr().out
