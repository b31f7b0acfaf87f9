"""Which callables form each layer's boundary, and the per-layer ledger
derived from their spans.

Layers are the program's own module names. The wrappers go on public
callables only; a name that other modules imported with ``from x import
f`` is wrapped where it is *looked up*, which is why ``run_block`` and
``make_instance`` are listed under the harness module.

The counts in a span's attributes are taken at the boundary the span
marks (lanes handed to ``run_block``, EIs a lowering produced), so the
ratios built from them are measured where the work happens.
"""

from __future__ import annotations

import importlib
import os

from spans import (
    ATTRS,
    END,
    NAME,
    START,
    Tracer,
    self_times,
    span_self_times,
)
from stats import percentile

__all__ = ["install", "batch_ledger", "service_ledger"]


def _count_tintervals(attrs, _args, _kwargs, result) -> None:
    if result is not None:
        attrs["tintervals"] = sum(len(p) for p in result[1])


def _count_events(attrs, _args, _kwargs, result) -> None:
    if result is not None:
        attrs["events"] = len(result[1])


def _count_eis(attrs, args, _kwargs, _result) -> None:
    attrs["eis"] = getattr(args[0], "E", 0)


def _count_lanes(attrs, args, kwargs, _result) -> None:
    epoch = kwargs.get("epoch", args[1] if len(args) > 1 else None)
    lanes = kwargs.get("lanes", args[2] if len(args) > 2 else ())
    attrs["lanes"] = len(lanes)
    attrs["lane_chronons"] = len(lanes) * (epoch.length if epoch else 0)


def _count_cells(attrs, _args, _kwargs, result) -> None:
    if result is not None:
        attrs["cells"] = sum(run.config.repetitions
                             for run in result.runs)
        attrs["fell_back"] = result.fell_back


def _federation_counts(attrs, _args, _kwargs, result) -> None:
    if result is not None:
        routed = [load.probes_routed for load in result.loads]
        mean = sum(routed) / len(routed)
        attrs["routed_skew"] = max(routed) / mean if mean else 0.0
        attrs["stolen_budget"] = result.stolen_budget
        attrs["steal_transfers"] = result.steal_transfers


_ENGINE = "repro.simulation.engine"
_JOURNAL = "repro.runtime.aio.journal"

#: (span name, module, attribute or Class.method, count callback).
BOUNDARIES: tuple[tuple[str, str, str, object], ...] = (
    ("harness.sweep", "repro.experiments.harness", "sweep", _count_cells),
    ("harness.fault_sweep", "repro.experiments.faults", "fault_sweep",
     _count_cells),
    ("instances.make_instance", "repro.experiments.harness",
     "make_instance", _count_tintervals),
    ("churn.build", "repro.experiments.churn", "build_churn_workload",
     _count_events),
    ("columnar.lower", "repro.simulation.columnar",
     "ColumnarInstance.__init__", _count_eis),
    ("batch.run_block", "repro.experiments.harness", "run_block",
     _count_lanes),
    ("batch.run_block", "repro.simulation.batch", "run_block",
     _count_lanes),
    ("engine.run", _ENGINE, "FastProxySimulator.run", None),
    ("engine.begin", _ENGINE, "FastProxySimulator.begin", None),
    ("engine.advance", _ENGINE, "FastProxySimulator.advance", None),
    ("engine.finish", _ENGINE, "FastProxySimulator.finish", None),
    ("engine.add_profile", _ENGINE, "FastProxySimulator.add_profile",
     None),
    ("engine.remove_profile", _ENGINE,
     "FastProxySimulator.remove_profile", None),
    ("shard.federated_run", "repro.simulation.shard", "federated_run",
     _federation_counts),
    ("service.register", "repro.runtime.aio.service",
     "ProxyService.register", None),
    ("service.cancel", "repro.runtime.aio.service",
     "ProxyService.cancel", None),
    ("aio.astep", "repro.runtime.aio.proxy",
     "AsyncMonitoringProxy.astep", None),
    ("journal.record", _JOURNAL, "Journal.record_client", None),
    ("journal.record", _JOURNAL, "Journal.record_register", None),
    ("journal.record", _JOURNAL, "Journal.record_unregister", None),
    ("journal.record", _JOURNAL, "Journal.record_capture", None),
    ("journal.record", _JOURNAL, "Journal.record_complete", None),
    ("journal.record", _JOURNAL, "Journal.record_tick", None),
    ("admission.decide", "repro.runtime.aio.admission",
     "AdmissionController.decide", None),
    ("origin.probe", "repro.runtime.server", "OriginServer.try_probe",
     None),
    ("origin.probe", "repro.runtime.server", "OriginServer.probe", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes it."""
    for name, module_name, path, note in BOUNDARIES:
        owner = importlib.import_module(module_name)
        *holders, attr = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        tracer.wrap(owner, attr, name, note)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _readers(tracer: Tracer):
    """(total seconds, self seconds, call count) by span name; 0 for a
    layer that was never entered."""
    times = self_times(tracer.spans)

    def reader(key: str):
        return lambda name: times.get(name, {}).get(key, 0)

    return reader("total_s"), reader("self_s"), reader("calls")


def batch_ledger(tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer metrics of one traced batch repetition.

    ``root`` names the span around the workload's timed region; every
    other span nests under it, so the self times sum to its duration.
    """
    total, own, calls = _readers(tracer)

    lane_chronons = tracer.attr_sum("batch.run_block", "lane_chronons")
    eis = tracer.attr_sum("columnar.lower", "eis")
    churn_events = calls("engine.add_profile") \
        + calls("engine.remove_profile")
    churn_s = total("engine.add_profile") + total("engine.remove_profile")
    federations = tracer.named("shard.federated_run")
    federation = (federations[0][ATTRS] or {}) if federations else {}
    return {
        "bench.self_s": own(root),
        "harness.self_s": own("harness.sweep")
        + own("harness.fault_sweep"),
        "harness.cells": tracer.attr_sum("harness.sweep", "cells")
        + tracer.attr_sum("harness.fault_sweep", "cells"),
        "harness.budget_sweep_s": total("harness.sweep"),
        "harness.fault_sweep_s": total("harness.fault_sweep"),
        "instances.generate_s": total("instances.make_instance"),
        "instances.calls": calls("instances.make_instance"),
        "instances.tintervals": tracer.attr_sum(
            "instances.make_instance", "tintervals"),
        "churn.build_s": total("churn.build"),
        "churn.events": tracer.attr_sum("churn.build", "events"),
        "columnar.lower_s": total("columnar.lower"),
        "columnar.eis": eis,
        "columnar.us_per_ei": _ratio(total("columnar.lower") * 1e6, eis),
        "batch.run_block_s": own("batch.run_block"),
        "batch.lanes": tracer.attr_sum("batch.run_block", "lanes"),
        "batch.lane_chronons": lane_chronons,
        "batch.us_per_lane_chronon": _ratio(
            own("batch.run_block") * 1e6, lane_chronons),
        "batch.fell_back": tracer.attr_sum("harness.sweep", "fell_back")
        + tracer.attr_sum("harness.fault_sweep", "fell_back"),
        "engine.run_s": total("engine.run"),
        "engine.runs": calls("engine.run"),
        "engine.begin_s": total("engine.begin"),
        "engine.advance_s": own("engine.advance"),
        "engine.finish_s": total("engine.finish"),
        "engine.us_per_chronon": _ratio(
            own("engine.advance") * 1e6, calls("engine.advance")),
        "engine.add_profile_s": total("engine.add_profile"),
        "engine.remove_profile_s": total("engine.remove_profile"),
        "engine.adds": calls("engine.add_profile"),
        "engine.removes": calls("engine.remove_profile"),
        "engine.us_per_churn_event": _ratio(churn_s * 1e6, churn_events),
        "shard.run_s": own("shard.federated_run"),
        "shard.probes_routed_skew": federation.get("routed_skew", 0.0),
        "shard.stolen_budget": federation.get("stolen_budget", 0),
        "shard.steal_transfers": federation.get("steal_transfers", 0),
    }


def engine_served(tracer: Tracer) -> dict[str, str]:
    """Which engine ran under each harness entry point (figures)."""
    served = {}
    for panel in ("harness.sweep", "harness.fault_sweep"):
        engines = set()
        for span in tracer.spans:
            if span[NAME] in ("engine.run", "batch.run_block") \
                    and tracer.has_ancestor(span, panel):
                engines.add("fast" if span[NAME] == "engine.run"
                            else "batch")
        served[panel] = "+".join(sorted(engines)) or "none"
    return served


def service_ledger(tracer: Tracer, window_s: float, journal_path: str,
                   stats: dict, admission: dict) -> dict[str, float]:
    """Per-layer metrics of one traced serving window (child side).

    The client-side half (POST latency, generator lateness, tick gaps)
    is added by the parent, which is where those are observed.
    """
    total, own, calls = _readers(tracer)
    per_span = span_self_times(tracer.spans)

    def durations_ms(name: str) -> list[float]:
        return [(span[END] - span[START]) * 1e3
                for span in tracer.named(name)]

    def self_ms(name: str) -> list[float]:
        return [per_span[index] * 1e3
                for index, span in enumerate(tracer.spans)
                if span[NAME] == name and span[END] is not None]

    def p(values: list[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    asteps = durations_ms("aio.astep")
    return {
        "service.register_self_ms_p50": p(self_ms("service.register"), 50),
        "service.cancel_self_ms_p50": p(self_ms("service.cancel"), 50),
        "service.register_span_ms_p50":
            p(durations_ms("service.register"), 50),
        "aio.astep_ms_p50": p(asteps, 50),
        "aio.astep_ms_p99": p(asteps, 99),
        "aio.astep_busy_ratio": _ratio(sum(asteps) / 1e3, window_s),
        "aio.notifications": stats["completed"],
        "aio.requests_sent": (stats["probes_used"] + stats["probes_failed"]
                              + stats["hedges"]),
        "journal.write_s": total("journal.record"),
        "journal.records": calls("journal.record"),
        "journal.bytes": os.path.getsize(journal_path),
        "admission.decide_s": total("admission.decide"),
        "admission.shed": admission.get("shed", 0),
        "origin.probe_s": own("origin.probe"),
        "origin.probes": calls("origin.probe"),
    }
