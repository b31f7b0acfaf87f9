"""Metric names, units and regression bounds (stdlib only).

``BENCHMARK.json`` at the repository root is the contract with the
acceptance driver and the single source for the metrics it gates: the
end-to-end metrics every workload reports, and the per-layer metrics of
the traced run. The driver requires every workload to print every
end-to-end metric, so that list holds only what all four users see:

* ``setup_s`` — spawn to the start of the timed region;
* ``wall_s`` — how long the user waits from handing over the inputs to
  holding the complete answer. ``figures``: config to both panels;
  ``catalog``: config to schedule; ``live-churn``: plan to three finished
  epochs; ``service``: one registration, from the moment it was due to
  its full ``201`` response (good quartile over a serving window);
* ``tintervals_per_s`` — t-intervals decided per second of that work;
* ``peak_rss_mb`` — of the process doing the work.

What only one workload has is listed here as ``WORKLOAD_METRICS``: it is
measured untraced like the others, printed and written by ``run.py`` in
its report mode, and gated by ``compare.py`` with the bounds below.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["ROOT", "WORKLOAD_METRICS", "benchmark_spec", "end_to_end"]

#: The checkout root: this file is ``<root>/benchmarks/e2e/metrics.py``.
ROOT = Path(__file__).resolve().parents[2]

WORKLOAD_METRICS: dict[str, list[dict]] = {
    "figures": [
        {"name": "budget_sweep_s", "unit": "s", "better": "lower",
         "bound": 0.25},
        {"name": "fault_sweep_s", "unit": "s", "better": "lower",
         "bound": 0.25},
    ],
    "service": [
        {"name": "register_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "register_p90_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "tick_overrun_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "tick_overrun_p90_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
    ],
}

#: Failed / attempted operations; any increase is a regression.
FAIL_RATIO = {"name": "fail_ratio", "unit": "ratio", "better": "lower",
              "bound": 0.0}


def benchmark_spec() -> dict:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(workload: str) -> list[dict]:
    """Every end-to-end metric ``workload`` reports, gated ones first."""
    return (benchmark_spec()["end_to_end"]
            + WORKLOAD_METRICS.get(workload, []) + [FAIL_RATIO])
