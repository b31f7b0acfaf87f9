"""Benchmark regression report: ``repro-experiments bench-report``.

Loads every ``BENCH_*.json`` report, extracts all tracked ``speedup``
figures (any numeric value stored under a ``"speedup"`` key, at any
nesting depth), prints them as one table, and compares each against the
committed baseline (the same file at git ``HEAD``). The command exits
non-zero when any speedup regressed by more than the tolerance — CI runs
it after regenerating the smoke-scale reports, turning silent perf
regressions into red builds. A baseline speedup the current report lacks
(a scale the run skipped, or a row that was removed) is listed as
``missing`` and counted in the summary line; it does not fail the gate.

Also runnable directly: ``python -m repro.bench_report [--dir .]
[--baseline-dir DIR] [--tolerance 0.2]``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

__all__ = ["collect_speedups", "load_baseline", "main"]


def collect_speedups(report: object, prefix: str = "") -> dict[str, float]:
    """All numeric ``speedup`` entries of a report, keyed by dotted path."""
    found: dict[str, float] = {}
    if isinstance(report, dict):
        for key, value in report.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if key == "speedup" and isinstance(value, (int, float)):
                found[path] = float(value)
            else:
                found.update(collect_speedups(value, path))
    elif isinstance(report, list):
        for at, value in enumerate(report):
            found.update(collect_speedups(value, f"{prefix}[{at}]"))
    return found


def load_baseline(name: str, directory: Path,
                  baseline_dir: Path | None) -> dict | None:
    """The committed baseline report for ``name``, or ``None`` if absent.

    With ``baseline_dir`` the baseline is read from that directory
    (used by tests); otherwise it is the file's content at git ``HEAD``.
    """
    if baseline_dir is not None:
        path = baseline_dir / name
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD:{name}"], cwd=directory,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        return None


def main(argv: list[str] | None = None) -> int:
    """Print the speedup table; exit 1 on any gated regression."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench-report",
        description="Summarize BENCH_*.json speedups and gate on "
                    "regressions vs the committed baselines.")
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json reports (default: .)")
    parser.add_argument(
        "--baseline-dir", default=None, metavar="DIR",
        help="read baselines from DIR instead of git HEAD")
    parser.add_argument(
        "--tolerance", type=float, default=0.2, metavar="FRACTION",
        help="allowed fractional regression before failing "
             "(default: 0.2 = 20%%)")
    args = parser.parse_args(argv)

    directory = Path(args.dir)
    baseline_dir = Path(args.baseline_dir) if args.baseline_dir else None
    reports = sorted(directory.glob("BENCH_*.json"))
    if not reports:
        print(f"no BENCH_*.json reports under {directory.resolve()}")
        return 0

    rows: list[tuple[str, str, str, float | None, str]] = []
    regressions: list[str] = []
    missing = 0
    for path in reports:
        try:
            current = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: unreadable report {path.name}: {error}",
                  file=sys.stderr)
            continue
        base = load_baseline(path.name, directory, baseline_dir)
        now = collect_speedups(current)
        then = collect_speedups(base) if base is not None else {}
        for key in sorted(now):
            value = now[key]
            reference = then.get(key)
            if reference is None:
                rows.append((path.name, key, "-", value, "new"))
                continue
            floor = reference * (1.0 - args.tolerance)
            status = "ok" if value >= floor else "REGRESSED"
            rows.append((path.name, key, f"{reference:.2f}", value, status))
            if value < floor:
                regressions.append(
                    f"{path.name}:{key} {reference:.2f}x -> {value:.2f}x "
                    f"(floor {floor:.2f}x)")
        for key in sorted(set(then) - set(now)):
            rows.append((path.name, key, f"{then[key]:.2f}", None,
                         "missing"))
            missing += 1

    name_w = max([len(r[0]) for r in rows] + [6])
    key_w = max([len(r[1]) for r in rows] + [4])
    print(f"{'report':<{name_w}}  {'path':<{key_w}}  "
          f"{'baseline':>8}  {'current':>8}  status")
    for name, key, reference, value, status in rows:
        current = "-" if value is None else f"{value:.2f}"
        print(f"{name:<{name_w}}  {key:<{key_w}}  "
              f"{reference:>8}  {current:>8}  {status}")

    unchecked = (f"; {missing} baseline speedup(s) missing from the "
                 "current reports, not compared" if missing else "")
    if regressions:
        print(f"\n{len(regressions)} speedup(s) regressed more than "
              f"{args.tolerance:.0%}{unchecked}:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nall tracked speedups within {args.tolerance:.0%} "
          f"of their baselines{unchecked}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
