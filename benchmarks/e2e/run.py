#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, four workloads.

Report mode (a person at a terminal)::

    python benchmarks/e2e/run.py [--seed N] [--workload W] [--scale S]
                                 [--smoke] [--traced] [--out DIR]

runs every workload untraced, prints each end-to-end metric by name with
its unit, sample count, median and quartiles, verifies the outputs, then
makes one separate traced run per workload for the per-layer ledger and
writes both to ``DIR/e2e-<scale>-seed<N>.json``.

Driver mode (``BENCHMARK.json``'s command)::

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T

measures one workload for S seconds and prints, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

This process generates load and reports; it never imports ``repro``.
Every repetition runs in a child interpreter started from this
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import loadgen  # noqa: E402
from metrics import ROOT, benchmark_spec, end_to_end  # noqa: E402
from scales import (  # noqa: E402
    DEFAULT_SEED,
    SCALES,
    TICK_INTERVAL_S,
    WORKLOADS,
    repetition_seed,
)
from stats import best_quartile, percentile, summary  # noqa: E402

GOLDEN = HERE / "golden.json"
#: A child that has not answered by then is killed (driver cap: 180 s).
CHILD_TIMEOUT_S = 150
#: Repetitions of the report mode (issue 11: 5 batch, 3 service).
REPORT_REPETITIONS = {"figures": 5, "catalog": 5, "live-churn": 5,
                      "service": 3}
SERVICE_RESOURCES = 64
#: Repetitions forked from one worker process before a new one is
#: spawned, so that a run still samples import time several times.
FORKS_PER_WORKER = 4


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or printed no report."""


def child_env() -> dict:
    """The children import ``repro`` from this checkout, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

def batch_repetitions(workload: str, seed: int, scale: str, *,
                      first_index: int, count: int, until: float | None,
                      trace: str, trace_out: Path | None) -> list[dict]:
    """Up to ``count`` repetitions from one ``worker.py`` process.

    The worker imports the program once and forks a fresh child per
    repetition; it stops early once ``time.time()`` passes ``until``.
    ``setup_s`` of a repetition is that import plus its own input
    generation.
    """
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--repetitions", str(count),
               "--first-index", str(first_index), "--trace", trace]
    if until is not None:
        command += ["--until", str(until)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = time.time()
    done = subprocess.run(command, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise ChildFailed(f"worker exited {done.returncode}:\n"
                          f"{done.stderr[-2000:]}")
    ready, *reports = [json.loads(line)
                       for line in done.stdout.splitlines() if line.strip()]
    if not reports:
        raise ChildFailed("worker ran no repetition")
    import_s = ready["at"] - spawned
    out = []
    for report in reports:
        raw = {
            "setup_s": import_s + report["prepare_s"],
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        raw.update({name: value for name, value in report["parts"].items()
                    if name in ("budget_sweep_s", "fault_sweep_s")})
        values = scaled(raw, calibration.speed(report["kernel_s"]))
        values["tintervals_per_s"] = report["tintervals"] / values["wall_s"]
        out.append({"values": values, "raw": raw,
                    "kernel_s": report["kernel_s"],
                    "traced": report["traced"],
                    "checks": report["checks"], "digest": report["digest"],
                    "report": report, "layers": report.get("layers", {})})
    return out


#: Not durations set by host speed: never divided by the speed factor.
UNSCALED = ("peak_rss_mb", "tintervals_per_s")


def scaled(raw: dict, speed: float) -> dict:
    """Durations in reference seconds (see ``calibration.py``)."""
    return {name: value if name in UNSCALED else value / speed
            for name, value in raw.items()}


async def service_repetition(seed: int, scale: str, traced: bool,
                             out_dir: Path, trace_out: Path | None
                             ) -> dict:
    """One serving window: spawn the service, load it, verify, stop it."""
    size = SCALES[scale]["service"]
    journal = out_dir / f"journal-{os.getpid()}-{time.time_ns()}.jsonl"
    command = [sys.executable, str(HERE / "service_host.py"),
               "--seed", str(seed), "--scale", scale,
               "--journal", str(journal), "--trace", str(int(traced))]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = time.perf_counter()
    child = await asyncio.create_subprocess_exec(
        *command, env=child_env(), stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE)
    subscriber = loadgen.Subscriber()
    try:
        async def line() -> dict:
            raw = await asyncio.wait_for(child.stdout.readline(),
                                         CHILD_TIMEOUT_S)
            if not raw:
                stderr = (await child.stderr.read()).decode()
                raise ChildFailed(f"service host died:\n{stderr[-2000:]}")
            return json.loads(raw)

        listening = await line()
        port = listening["port"]
        status, _ = await loadgen.http_request(port, "GET", "/readyz")
        setup_s = time.perf_counter() - spawned \
            - listening["calibration_s"]
        await subscriber.connect(port)
        child.stdin.write(b"go\n")
        await child.stdin.drain()
        client = await loadgen.drive(
            port, seed, size["rate"], size["epoch_length"],
            TICK_INTERVAL_S, SERVICE_RESOURCES, subscriber)
        await line()  # epoch_done
        saw_last_tick = await subscriber.wait_for_chronon(
            size["epoch_length"], timeout=5.0)
        _, served = await loadgen.http_request(port, "GET", "/stats")
        child.stdin.write(b"stop\n")
        await child.stdin.drain()
        report = await line()
        await asyncio.wait_for(child.wait(), CHILD_TIMEOUT_S)
    finally:
        await subscriber.close()
        if child.returncode is None:
            child.kill()
            await child.wait()

    stats = served["stats"]
    decided = stats["completed"] + stats["expired"] + stats["dropped"]
    overruns = subscriber.tick_overruns_ms(TICK_INTERVAL_S)
    register_ms = client["register_ms"]
    checks = {
        "ready_before_load": status == 200,
        "every_request_accepted": client["refused"] == 0,
        "saw_last_tick": saw_last_tick,
        "notifications_equal_completed":
            subscriber.counts.get("notification", 0) == stats["completed"],
        "conservation": stats["registered"] == decided,
        "journal_replays_completions":
            report["journal_completions"] == stats["completed"],
        "nothing_shed": served["admission"]["shed"] == 0,
    }
    raw = {
        "setup_s": setup_s,
        # The good quartile again, here over the window's requests: one
        # stall of the host backs the open loop up and charges its wait
        # to every request it delayed, often more than half a window.
        "wall_s": percentile(register_ms, 25) / 1e3,
        # Set by the tick clock and the request schedule, not by speed.
        "tintervals_per_s": decided / report["window_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "register_p50_ms": percentile(register_ms, 50),
        "register_p90_ms": percentile(register_ms, 90),
        "tick_overrun_p50_ms": percentile(overruns, 50),
        "tick_overrun_p90_ms": percentile(overruns, 90),
    }
    # Only set-up follows the interpreter-bound kernel. A registration
    # is mostly loopback sockets and event-loop wake-ups: measured over
    # ten runs, dividing it by the speed factor doubled its spread.
    values = dict(raw, setup_s=raw["setup_s"]
                  / calibration.speed(report["kernel_s"]))
    layers = dict(report.get("layers", {}))
    if layers:
        layers.update({
            "service.register_p50_ms": raw["register_p50_ms"],
            "service.register_p90_ms": raw["register_p90_ms"],
            "service.register_p99_ms": percentile(register_ms, 99),
            "service.gen_late_p50_ms": percentile(client["late_ms"], 50),
            "service.gen_late_p99_ms": percentile(client["late_ms"], 99),
            "service.tick_overrun_p50_ms": raw["tick_overrun_p50_ms"],
            "service.tick_overrun_p90_ms": raw["tick_overrun_p90_ms"],
            "service.http_overhead_ms_p50":
                raw["register_p50_ms"]
                - layers.pop("service.register_span_ms_p50"),
        })
    return {"values": values, "raw": raw, "kernel_s": report["kernel_s"],
            "traced": traced, "checks": checks, "digest": None,
            "report": {"summary": {"requests": client["requests"],
                                   "registered": stats["registered"],
                                   "completed": stats["completed"],
                                   "window_s": report["window_s"]}},
            "layers": layers, "requests": client["requests"]}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, scale: str, out_dir: Path, *,
            seconds: float | None = None, repetitions: int | None = None,
            traced: bool = False) -> dict:
    """Repeat ``workload`` for ``seconds`` or ``repetitions`` times.

    Timed by ``seconds`` (driver mode), traced repetitions alternate
    with untraced ones, so the tracing overhead is the ratio of two
    medians taken within the same run. Counted by ``repetitions``
    (report mode), every repetition is traced or none is. Repetition
    ``i`` runs on the inputs of ``repetition_seed(seed, i)``; every one
    gets the structural checks, the first also the reference reruns and,
    for the default seed, the golden digest.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    least = 4 if traced else 3
    alternate = traced and repetitions is None
    deadline = None if seconds is None else time.time() + seconds
    every: list[dict] = []
    trace_out: Path | None = out_dir / f"trace-{workload}.json" \
        if traced else None
    while True:
        count = len(every)
        if repetitions is not None:
            if count >= repetitions:
                break
        elif count >= least and time.time() >= deadline:
            break
        if workload == "service":
            trace_this = traced and (not alternate or count % 2 == 0)
            every.append(asyncio.run(service_repetition(
                repetition_seed(seed, count), scale, trace_this, out_dir,
                trace_out if trace_this else None)))
        else:
            every += batch_repetitions(
                workload, seed, scale, first_index=count,
                count=FORKS_PER_WORKER if repetitions is None
                else min(FORKS_PER_WORKER, repetitions - count),
                until=deadline if count >= least else None,
                trace="even" if alternate else
                ("all" if traced else "none"), trace_out=trace_out)
        if any(done["traced"] for done in every):
            trace_out = None
    plain = [done for done in every if not done["traced"]]
    with_trace = [done for done in every if done["traced"]]

    checks: list[tuple[str, bool]] = [
        (name, passed) for done in every
        for name, passed in done["checks"].items()]
    golden = golden_digest(scale, workload)
    if seed == DEFAULT_SEED and golden is not None:
        checks.append(("digest_equals_golden",
                       every[0]["digest"] == golden))
    attempted = len(checks) + sum(done.get("requests", 0) for done in every)
    failed = sum(1 for _name, passed in checks if not passed)

    measured = plain if plain else with_trace
    samples = {name: [done["values"][name] for done in measured]
               for name in measured[0]["values"]}
    result = {
        "workload": workload, "seed": seed, "scale": scale,
        "repetitions": len(measured),
        "samples": samples,
        "raw_samples": {name: [done["raw"][name] for done in measured]
                        for name in measured[0]["raw"]},
        "kernel_s": [done["kernel_s"] for done in measured],
        "host_speed": [calibration.speed(done["kernel_s"])
                       for done in measured],
        "attempted": attempted, "failed": failed,
        "failed_checks": sorted({name for name, passed in checks
                                 if not passed}),
        "digest": every[0]["digest"],
        "summary": every[0]["report"].get("summary", {}),
    }
    if with_trace:
        names = with_trace[0]["layers"]
        layers = {name: statistics.median(done["layers"][name]
                                          for done in with_trace)
                  for name in names}
        traced_wall = statistics.median(done["values"]["wall_s"]
                                        for done in with_trace)
        if plain:
            layers["trace_overhead_ratio"] = \
                traced_wall / statistics.median(samples["wall_s"])
        result["layers"] = layers
        result["traced_repetitions"] = len(with_trace)
        first = with_trace[0]["report"]
        for key in ("self_time_s", "engine_served"):
            if key in first:
                result[key] = first[key]
        result["traced_wall_s"] = traced_wall
        # Unscaled, of the repetition whose self times are reported:
        # those sum to it.
        result["traced_wall_raw_s"] = with_trace[0]["raw"]["wall_s"]
    return result


def golden_digest(scale: str, workload: str) -> str | None:
    if not GOLDEN.exists():
        return None
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle).get(scale, {}).get(workload, {}).get(
            "digest")


def regen_golden(scale: str) -> None:
    """Rewrite ``scale``'s part of ``golden.json`` from one verified
    repetition per batch workload."""
    golden = {}
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    for workload in WORKLOADS:
        if workload == "service":
            continue  # real-time and timing-dependent: no golden
        done, = batch_repetitions(
            workload, DEFAULT_SEED, scale, first_index=0, count=1,
            until=None, trace="none", trace_out=None)
        if not all(done["checks"].values()):
            raise SystemExit(f"refusing to record {workload}@{scale}: "
                             f"checks failed {done['checks']}")
        golden.setdefault(scale, {})[workload] = {
            "digest": done["digest"], "summary": done["report"]["summary"]}
        print(f"golden {scale:9s} {workload:11s} {done['digest']}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, **{
            name: golden[name] for name in SCALES if name in golden}},
            handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def metric_table(workload: str, result: dict) -> dict[str, dict]:
    """name -> {unit, value, n, median, q1, q3, samples} of a workload's
    end-to-end metrics. ``value`` is what the run reports and what gets
    compared: the quartile on the metric's good side (see
    ``stats.best_quartile``). ``fail_ratio`` is one sample per run."""
    samples = dict(result["samples"])
    samples["fail_ratio"] = [result["failed"] / result["attempted"]]
    return {spec["name"]: {
        "unit": spec["unit"],
        "value": best_quartile(samples[spec["name"]], spec["better"]),
        **summary(samples[spec["name"]]),
        "samples": samples[spec["name"]]}
        for spec in end_to_end(workload)}


def driver_line(result: dict, traced: bool) -> dict:
    """The one JSON object the acceptance driver reads."""
    spec = benchmark_spec()
    if traced:
        layers = result["layers"]
        extra = set(layers) - {m["name"] for m in spec["per_layer"]}
        if extra:
            raise SystemExit(f"undeclared per-layer metrics: {extra}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        table = metric_table(result["workload"], result)
        metrics = {m["name"]: {"value": table[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def print_report(workload: str, result: dict) -> None:
    print(f"\n== {workload}: {result['repetitions']} repetitions, "
          f"seed {result['seed']}, scale {result['scale']}, "
          f"{json.dumps(result['summary'])}")
    if result["failed"]:
        print(f"   VERIFICATION FAILED ({result['failed']} of "
              f"{result['attempted']}): {result['failed_checks']}; "
              f"no metrics reported")
        return
    print(f"   host speed factor per repetition: "
          f"{' '.join(f'{x:.2f}' for x in result['host_speed'])} "
          f"(durations below are divided by it)")
    print(f"   {'end-to-end metric':24s} {'unit':6s} {'n':>3s} "
          f"{'value':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name, row in metric_table(workload, result).items():
        print(f"   {name:24s} {row['unit']:6s} {row['n']:3d} "
              f"{row['value']:12.4f} {row['median']:12.4f} "
              f"{row['q1']:12.4f} {row['q3']:12.4f}")


def print_layers(workload: str, result: dict) -> None:
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    print(f"\n-- {workload} traced: {result['traced_repetitions']} "
          f"repetitions")
    for name, value in result["layers"].items():
        if value:
            print(f"   {name:32s} {units.get(name, ''):6s} {value:14.4f}")
    if "engine_served" in result:
        print(f"   engines: {json.dumps(result['engine_served'])}")
    if "self_time_s" in result:
        total = sum(result["self_time_s"].values())
        print(f"   self times (sum {total:.4f} s; traced wall "
              f"{result['traced_wall_raw_s']:.4f} s, unscaled):")
        for name, own in sorted(result["self_time_s"].items(),
                                key=lambda item: -item[1]):
            print(f"     {name:30s} {own:10.4f} s {100 * own / total:5.1f} %")


def report_mode(args) -> int:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from _provenance import provenance_header

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = Path(args.out)
    document = {
        **provenance_header("e2e/run.py"),
        "seed": args.seed, "scale": args.scale,
        "tick_interval_s": TICK_INTERVAL_S,
        "request_rate_per_s": SCALES[args.scale]["service"]["rate"],
        "sizes": SCALES[args.scale],
        "workloads": {},
    }
    failed = 0
    for workload in ([] if args.traced else workloads):
        reps = args.repetitions or \
            (1 if args.scale == "smoke" else REPORT_REPETITIONS[workload])
        result = measure(workload, args.seed, args.scale, out_dir,
                         repetitions=reps)
        print_report(workload, result)
        failed += result["failed"]
        entry = {key: result[key] for key in
                 ("repetitions", "attempted", "failed", "failed_checks",
                  "digest", "summary", "raw_samples", "kernel_s",
                  "host_speed")}
        if not result["failed"]:
            entry["end_to_end"] = metric_table(workload, result)
        document["workloads"][workload] = entry
    for workload in workloads:
        entry = document["workloads"].setdefault(workload, {})
        if entry.get("failed"):
            continue
        result = measure(workload, args.seed, args.scale, out_dir,
                         repetitions=1, traced=True)
        if "end_to_end" in entry:
            result["layers"]["trace_overhead_ratio"] = \
                result["traced_wall_s"] \
                / entry["end_to_end"]["wall_s"]["median"]
        print_layers(workload, result)
        failed += result["failed"]
        entry["per_layer"] = result["layers"]
        for key in ("self_time_s", "engine_served", "traced_wall_s",
                    "traced_wall_raw_s"):
            if key in result:
                entry[key] = result[key]
    path = out_dir / f"e2e-{args.scale}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="driver mode: measure this long, print JSON")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints per-layer metrics")
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="contract")
    parser.add_argument("--smoke", action="store_true",
                        help="report mode at the smoke scale, 1 repetition")
    parser.add_argument("--traced", action="store_true",
                        help="report mode: only the traced runs")
    parser.add_argument("--repetitions", type=int,
                        help="report mode: repetitions per workload")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json's digests for --scale")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = "smoke"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    if args.regen_golden:
        regen_golden(args.scale)
        return 0
    if args.seconds is None:
        return report_mode(args)
    if args.workload is None:
        parser.error("--seconds needs --workload")
    result = measure(args.workload, args.seed, args.scale, Path(args.out),
                     seconds=args.seconds, traced=bool(args.trace))
    # For people: what the one line below was computed from.
    print(json.dumps({"repetitions": result["repetitions"],
                      "host_speed": result["host_speed"],
                      "kernel_s": result["kernel_s"],
                      "samples": result["samples"],
                      "raw_samples": result["raw_samples"],
                      "failed_checks": result["failed_checks"]}),
          file=sys.stderr)
    print(json.dumps(driver_line(result, bool(args.trace))))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        sys.exit(3)
