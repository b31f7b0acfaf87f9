"""Repetitions of one batch workload, each in a fresh process.

Spawned by ``run.py``. This interpreter imports the program once, says
``{"event": "ready"}``, and then forks one child per repetition; each
child prints one JSON line. A child starts exactly where a fresh
command-line run stands after its imports: nothing has been generated,
no instance or columnar cache is filled, the allocator has served the
imports only — so no private cache poke is needed to make a repetition
cold, and the second of import time is paid once per few repetitions
instead of once each, which doubles the share of a run that is measured.
Import time and input generation are booked to ``setup_s`` by the parent.
The timed region is bracketed by the host-speed calibration kernel (see
``calibration.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def repetition(args, index: int, traced: bool,
               trace_out: str | None) -> dict:
    """Prepare, time and check repetition ``index`` in this process.

    Every repetition gets the structural checks; repetition 0 also the
    reference reruns, which cost as much as the timed region itself.
    """
    import calibration
    from scales import SCALES, repetition_seed
    from workloads import BATCH_WORKLOADS

    began = time.time()
    prepare, run, describe, check = BATCH_WORKLOADS[args.workload]
    size = SCALES[args.scale][args.workload]
    tracer = None
    if traced:
        import layers
        from spans import Tracer
        tracer = Tracer()
        layers.install(tracer)

    root = f"bench.{args.workload}"
    try:
        inputs = prepare(repetition_seed(args.seed, index), size)
        gc.collect()
        before = calibration.bracket()
        timed_from = time.time()
        if tracer is None:
            outcome = run(inputs)
        else:
            with tracer.span(root):
                outcome = run(inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    kernel = before + calibration.bracket()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "workload": args.workload,
        "traced": traced,
        "prepare_s": timed_from - began - sum(before),
        "kernel_s": kernel,
        "wall_s": outcome["wall_s"],
        "parts": outcome["parts"],
        "peak_rss_mb": peak_rss_mb,
    }
    report.update(describe(inputs, outcome))
    if tracer is not None:
        report.update(_traced(args, tracer, root, inputs, trace_out))
    report["checks"] = check(inputs, outcome, reference=(index == 0))
    return report


def in_child(work) -> dict:
    """Run ``work()`` in a forked child; its result, through a pipe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as pipe:
                json.dump(work(), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise SystemExit(f"repetition child failed (wait status {status})")
    return json.loads(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--repetitions", type=int, default=1,
                        help="fork at most this many repetitions")
    parser.add_argument("--until", type=float, default=None,
                        help="fork no repetition after this time.time()")
    parser.add_argument("--trace", choices=("none", "all", "even"),
                        default="none",
                        help="which repetitions (by --first-index parity) "
                             "run under the tracer")
    parser.add_argument("--first-index", type=int, default=0,
                        help="index of this process's first repetition in "
                             "the run (it picks the input seed; repetition "
                             "0 also runs the reference checks)")
    parser.add_argument("--trace-out", default=None,
                        help="write the first traced repetition's spans")
    args = parser.parse_args(argv)

    import workloads  # noqa: F401  (the import the user pays for)
    print(json.dumps({"event": "ready", "at": time.time()}), flush=True)
    trace_out = args.trace_out
    for index in range(args.first_index,
                       args.first_index + args.repetitions):
        if index > args.first_index and args.until is not None \
                and time.time() >= args.until:
            break
        traced = args.trace == "all" or \
            (args.trace == "even" and index % 2 == 0)
        report = in_child(lambda: repetition(
            args, index, traced, trace_out if traced else None))
        if traced:
            trace_out = None
        print(json.dumps(report), flush=True)
    return 0


def _traced(args, tracer, root: str, inputs: dict,
            trace_out: str | None) -> dict:
    """The per-layer half of a traced repetition's report."""
    import layers
    from repro.experiments.instances import active_cache
    from spans import END, NAME, START, span_self_times

    ledger = layers.batch_ledger(tracer, root)
    cache = active_cache().stats()
    lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
    ledger["instances.cache_hit_ratio"] = \
        (cache["memory_hits"] + cache["disk_hits"]) / lookups \
        if lookups else 0.0
    extra = {}
    if args.workload == "figures":
        extra["engine_served"] = layers.engine_served(tracer)
        ledger.update(_fault_plane_probe(inputs))
    span = tracer.named(root)[0]
    if trace_out:
        tracer.dump(trace_out, workload=args.workload, seed=args.seed,
                    scale=args.scale)
    # Self time by span name over the timed region only (set-up spans
    # such as churn.build sit outside the root); sums to the wall time.
    self_time_s: dict[str, float] = {}
    for each, own in zip(tracer.spans, span_self_times(tracer.spans)):
        if each is span or tracer.has_ancestor(each, root):
            self_time_s[each[NAME]] = self_time_s.get(each[NAME], 0.0) + own
    return {
        "wall_s": span[END] - span[START],
        "layers": ledger,
        "self_time_s": self_time_s,
        **extra,
    }


def _fault_plane_probe(inputs: dict) -> dict:
    """The fault plane's own cost: panel B's rate-0.3 lanes run through
    ``run_block`` with and without their fault layer (wrappers off)."""
    from repro.experiments import harness
    from repro.experiments.faults import FAULT_POLICY_VARIANTS
    from repro.faults.breaker import CircuitBreaker, RetryConfig
    from repro.faults.model import FaultSpec
    from repro.online.registry import parse_policy_spec
    from repro.simulation.batch import FaultLane, run_block
    from repro.simulation.columnar import ColumnarInstance

    config = inputs["fault_config"]
    _trace, profiles = harness.make_instance(config, 0)
    columnar = ColumnarInstance.build(profiles, config.epoch)

    def lanes(faulty: bool) -> list[tuple]:
        out = []
        for label in FAULT_POLICY_VARIANTS:
            policy, preemptive = parse_policy_spec(label)
            fault = FaultLane(
                FaultSpec(failure_probability=0.3, seed=config.seed),
                RetryConfig(1),
                CircuitBreaker(failure_threshold=3, cooldown=4,
                               backoff_factor=2.0, max_cooldown=64),
            ) if faulty else None
            out.append((policy, preemptive, config.budget_vector, 0, fault))
        return out

    timings = {}
    for faulty in (False, True):
        started = time.perf_counter()
        results = run_block(profiles, config.epoch, lanes(faulty),
                            columnar=columnar)
        timings[faulty] = time.perf_counter() - started
    used = sum(result.probes_used for result in results)
    failed = sum(result.probes_failed for result in results)
    return {
        "faults.plane_overhead_ratio": timings[True] / timings[False],
        "faults.probes_failed": failed,
        "faults.retries": sum(result.retries for result in results),
        "faults.quarantined": sum(result.resources_quarantined
                                  for result in results),
        "faults.useful_probe_ratio": used / (used + failed)
        if used + failed else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
