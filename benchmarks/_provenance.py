"""Shared provenance header for every benchmark report.

All ``BENCH_*.json`` files start from the same header block so reports
are comparable across machines and revisions: interpreter and numpy
versions, CPU budget, and the git revision the numbers were measured at.
Deliberately hostname-free — reports are committed, and machine names
are noise (and occasionally private).
"""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np

__all__ = ["provenance_header"]


def _git(*args: str) -> str | None:
    """``git args`` run beside this file: its stdout, or None."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_rev() -> str:
    """The current git revision, ``-dirty`` when a tracked file differs
    from it (a baseline recorded before its own commit is not the
    parent's), or ``"unknown"`` outside a checkout."""
    rev = _git("rev-parse", "--short", "HEAD")
    if not rev:
        return "unknown"
    status = _git("status", "--porcelain", "--untracked-files=no")
    return f"{rev}-dirty" if status else rev


def provenance_header(script: str) -> dict:
    """The common header block for a benchmark report.

    ``script`` is the file name of the benchmark (e.g.
    ``"bench_batch.py"``); it lands in ``generated_by`` with the
    ``benchmarks/`` prefix.
    """
    return {
        "generated_by": f"benchmarks/{script}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_rev": _git_rev(),
    }
