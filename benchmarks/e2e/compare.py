#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both reported values
(the good-side quartile of the repetitions, see ``stats.best_quartile``),
medians and quartiles, how much worse B's value is than A's as a share
of A's, and the metric's bound. The verdict of a row:

* ``regressed`` — B's value is worse than A's by more than the bound;
* ``unresolved`` — the spread of either side (interquartile distance
  over the median) is wider than the bound *and* the two sets of runs
  overlap, so this pair of files cannot tell; run more repetitions;
* ``ok`` — otherwise.

``fail_ratio`` has bound 0: any increase is ``regressed``. The exit code
is non-zero when any row is ``regressed``. Comparing two runs of one
commit (A/A) is how the bounds themselves are checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import end_to_end  # noqa: E402

__all__ = ["compare", "verdict", "main"]


def verdict(spec: dict, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, worsening) of one metric; ``a``/``b`` are its rows
    (``value``, ``median``, ``q1``, ``q3``, ``samples``) in the two
    files. ``value`` — the good-side quartile a run reports — is what is
    compared; the quartiles say how far apart a side's own runs lie."""
    base = a["value"]
    change = b["value"] - a["value"]
    if spec["better"] == "higher":
        change = -change
    worse = change / abs(base) if base else (1.0 if change > 0 else 0.0)

    def spread(row: dict) -> float:
        return (row["q3"] - row["q1"]) / abs(row["median"]) \
            if row["median"] else 0.0

    overlap = (min(a["samples"]) <= max(b["samples"])
               and min(b["samples"]) <= max(a["samples"]))
    # fail_ratio (bound 0) is a count, not a noisy timing: always resolved.
    if spec["bound"] > 0 and overlap \
            and max(spread(a), spread(b)) > spec["bound"]:
        return "unresolved", worse
    if worse > spec["bound"]:
        return "regressed", worse
    return "ok", worse


def compare(a: dict, b: dict) -> list[dict]:
    """Rows for every metric of every workload present in both files."""
    rows = []
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            continue
        for spec in end_to_end(workload):
            name = spec["name"]
            row_a = in_a.get("end_to_end", {}).get(name)
            row_b = in_b.get("end_to_end", {}).get(name)
            if row_a is None or row_b is None:
                # A side whose verification failed reports no metrics.
                rows.append({"workload": workload, "metric": name,
                             "verdict": "regressed" if row_a else "unresolved",
                             "a": row_a, "b": row_b, "worse": None,
                             "spec": spec})
                continue
            outcome, worse = verdict(spec, row_a, row_b)
            rows.append({"workload": workload, "metric": name,
                         "verdict": outcome, "a": row_a, "b": row_b,
                         "worse": worse, "spec": spec})
    return rows


def _cell(row: dict | None) -> str:
    if row is None:
        return f"{'(no metrics: verification failed)':>44s}"
    return (f"{row['value']:10.4f} {row['median']:10.4f} "
            f"[{row['q1']:10.4f},{row['q3']:10.4f}]")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    a, b = documents
    print(f"A: {argv[0]} (git {a.get('git_rev')}, seed {a.get('seed')}, "
          f"scale {a.get('scale')})")
    print(f"B: {argv[1]} (git {b.get('git_rev')}, seed {b.get('seed')}, "
          f"scale {b.get('scale')})")
    print(f"{'workload':11s} {'metric':20s} {'unit':6s} "
          f"{'A value median [q1, q3]':>44s} "
          f"{'B value median [q1, q3]':>44s} "
          f"{'worse':>8s} {'bound':>6s} verdict")
    rows = compare(a, b)
    for row in rows:
        worse = "" if row["worse"] is None else f"{row['worse']:+8.1%}"
        print(f"{row['workload']:11s} {row['metric']:20s} "
              f"{row['spec']['unit']:6s} {_cell(row['a'])} "
              f"{_cell(row['b'])} {worse:>8s} "
              f"{row['spec']['bound']:6.0%} {row['verdict']}")
    counts = {name: sum(1 for row in rows if row["verdict"] == name)
              for name in ("ok", "unresolved", "regressed")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
