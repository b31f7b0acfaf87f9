"""BENCHMARK.json's shape, and that every run prints what it declares."""

import json
import re

import pytest

import compare
import run
from metrics import WORKLOAD_METRICS, benchmark_spec, end_to_end
from scales import SCALES, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1].startswith(spec["paths"][0])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    # The driver's time cap: 4 + 22 runs per workload within 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420


def test_every_scale_sizes_every_workload():
    for scale, sizes in SCALES.items():
        assert set(sizes) == set(WORKLOADS), scale
    assert set(WORKLOAD_METRICS) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_run_prints_every_declared_metric(workload, tmp_path):
    pytest.importorskip("repro")
    spec = benchmark_spec()
    plain = run.measure(workload, 11, "smoke", tmp_path, repetitions=1)
    assert plain["failed"] == 0, plain["failed_checks"]
    line = run.driver_line(plain, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    # The report mode adds the workload's own end-to-end metrics.
    table = run.metric_table(workload, plain)
    assert list(table) == [m["name"] for m in end_to_end(workload)]
    assert table["fail_ratio"]["median"] == 0

    traced = run.measure(workload, 11, "smoke", tmp_path, repetitions=1,
                         traced=True)
    assert traced["failed"] == 0, traced["failed_checks"]
    line = run.driver_line(traced, traced=True)
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert (tmp_path / f"trace-{workload}.json").exists()
    layers = traced["layers"]
    if workload != "live-churn":
        assert layers.get("engine.adds", 0) == 0
        assert layers.get("engine.removes", 0) == 0
    if workload == "catalog":
        assert layers["engine.runs"] == 0
        assert layers["columnar.lower_s"] > 0
    if workload == "service":
        assert layers["admission.shed"] == 0
        assert layers["journal.records"] > 0


def _row(samples):
    from stats import best_quartile, summary
    return {"unit": "s", "value": best_quartile(samples, "lower"),
            **summary(samples), "samples": samples}


def _document(wall, fail_ratio=0.0):
    rows = {m["name"]: _row([1.0, 1.0, 1.0]) for m in end_to_end("catalog")}
    rows["wall_s"] = _row(wall)
    rows["fail_ratio"] = _row([fail_ratio])
    return {"workloads": {"catalog": {"end_to_end": rows}}}


def test_compare_verdicts(tmp_path, capsys):
    bound = next(m["bound"] for m in benchmark_spec()["end_to_end"]
                 if m["name"] == "wall_s")
    steady = [1.00, 1.01, 0.99, 1.00, 1.00]

    def verdicts(a, b):
        return {row["metric"]: row["verdict"]
                for row in compare.compare(a, b)}

    same = verdicts(_document(steady), _document(steady))
    assert set(same.values()) == {"ok"}
    slower = [value * (1 + 2 * bound) for value in steady]
    assert verdicts(_document(steady), _document(slower))["wall_s"] \
        == "regressed"
    assert verdicts(_document(slower), _document(steady))["wall_s"] == "ok"
    # Spread wider than the bound and overlapping runs: cannot tell.
    noisy = [0.5, 1.0, 1.6, 2.2, 0.8]
    assert verdicts(_document(steady), _document(noisy))["wall_s"] \
        == "unresolved"
    # ... unless every run of B is clear of every run of A.
    far = [value + 10 for value in noisy]
    assert verdicts(_document(steady), _document(far))["wall_s"] \
        == "regressed"
    assert verdicts(_document(steady),
                    _document(steady, fail_ratio=0.01))["fail_ratio"] \
        == "regressed"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(steady)))
    b.write_text(json.dumps(_document(slower)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
