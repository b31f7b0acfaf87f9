"""Span self-time arithmetic and wrapper hygiene."""

import asyncio
import importlib
import json
import types

import pytest

import layers
import worker
from spans import Tracer, self_times, span_self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_with_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        clock.advance(1)                    # root alone: 1
        with tracer.span("child"):
            clock.advance(2)                # child alone: 2
            with tracer.span("grandchild"):
                clock.advance(3)            # grandchild: 3
            clock.advance(1)                # child alone: +1
        clock.advance(1)                    # root alone: +1
        with tracer.span("child"):          # a sibling of the first child
            clock.advance(4)
        clock.advance(2)                    # root alone: +2
    times = self_times(tracer.spans)
    assert times["root"] == {"calls": 1, "total_s": 14, "self_s": 4}
    assert times["child"] == {"calls": 2, "total_s": 10, "self_s": 7}
    assert times["grandchild"] == {"calls": 1, "total_s": 3, "self_s": 3}
    # Self times partition the root's duration.
    assert sum(entry["self_s"] for entry in times.values()) == 14


def test_overlapping_children_are_covered_once():
    # Two probes fanned out concurrently under one step: 0..4 and 2..6.
    spans = [["step", 0.0, 10.0, -1, None],
             ["probe", 0.0, 4.0, 0, None],
             ["probe", 2.0, 6.0, 0, None],
             ["open", 1.0, None, 0, None]]   # never closed: ignored
    assert span_self_times(spans) == [4.0, 4.0, 4.0, 0.0]


def test_wrapper_records_parentage_counts_and_restores():
    holder = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return holder.inner(x) * 2

    holder.inner, holder.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(holder, "inner", "layer.inner")
    tracer.wrap(holder, "outer", "layer.outer",
                note=lambda attrs, args, kwargs, result:
                attrs.update(arg=args[0], result=result))
    assert holder.outer(3) == 8
    names = [span[0] for span in tracer.spans]
    assert names == ["layer.outer", "layer.inner"]
    assert tracer.spans[1][3] == 0          # inner's parent is outer
    assert tracer.spans[0][4] == {"arg": 3, "result": 8}
    assert tracer.has_ancestor(tracer.spans[1], "layer.outer")
    tracer.restore()
    assert holder.inner is inner and holder.outer is outer


def test_async_wrapper_keeps_parent_per_task():
    holder = types.SimpleNamespace()

    async def step():
        await asyncio.sleep(0.01)
        return "stepped"

    def handle():
        return "handled"

    holder.step, holder.handle = step, handle
    tracer = Tracer()
    tracer.wrap(holder, "step", "aio.step")
    tracer.wrap(holder, "handle", "service.handle")

    async def scenario():
        task = asyncio.ensure_future(holder.step())
        await asyncio.sleep(0)              # step is now mid-await
        holder.handle()                     # another task's work
        return await task

    assert asyncio.run(scenario()) == "stepped"
    by_name = {span[0]: span for span in tracer.spans}
    # The handler ran while step awaited, but is not step's child.
    assert by_name["service.handle"][3] == -1
    tracer.restore()


def _wrapped_boundaries():
    left = []
    for _name, module_name, path, _note in layers.BOUNDARIES:
        owner = importlib.import_module(module_name)
        *holders, attr = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        if getattr(vars(owner)[attr], "__e2e_wrapper__", False):
            left.append(f"{module_name}.{path}")
    return left


def test_no_wrapper_left_on_repro_after_a_traced_run(tmp_path):
    pytest.importorskip("repro")
    trace_out = tmp_path / "trace.json"
    args = types.SimpleNamespace(workload="live-churn", seed=5,
                                 scale="smoke")
    # In this process, not in a forked child: the wrappers go onto the
    # very modules this test can inspect afterwards.
    report = worker.repetition(args, 0, traced=True,
                               trace_out=str(trace_out))
    assert report["layers"]["engine.adds"] > 0
    assert all(report["checks"].values())
    # Self times over the timed region sum to the traced wall time.
    assert sum(report["self_time_s"].values()) == \
        pytest.approx(report["wall_s"], rel=0.05)
    assert json.loads(trace_out.read_text())["spans"]
    assert _wrapped_boundaries() == []


def test_worker_forks_one_cold_child_per_repetition(capsys):
    pytest.importorskip("repro")
    assert worker.main(["--workload", "catalog", "--seed", "5",
                        "--scale", "smoke", "--repetitions", "2",
                        "--trace", "even"]) == 0
    ready, first, second = [json.loads(line) for line in
                            capsys.readouterr().out.strip().splitlines()]
    assert ready["event"] == "ready"
    assert first["traced"] and not second["traced"]
    # Reference reruns once, structural checks every time, and a
    # different input per repetition.
    assert set(second["checks"]) < set(first["checks"])
    assert all(first["checks"].values()) and all(second["checks"].values())
    assert first["digest"] != second["digest"]
    # Each child generated its own instance: nothing was cached across.
    assert first["layers"]["instances.cache_hit_ratio"] == 0.0
    assert _wrapped_boundaries() == []


def test_install_wraps_every_boundary_and_restore_undoes_it():
    pytest.importorskip("repro")
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert len(_wrapped_boundaries()) == len(layers.BOUNDARIES)
    finally:
        tracer.restore()
    assert _wrapped_boundaries() == []
