"""Shared helpers for the benchmark suite.

Each bench of ``bench_paper.py`` regenerates one table/figure of the paper
at the ``default`` scale (reduced sizes, same regime — see
``repro.experiments.config``), prints the same series the paper plots, and
asserts the paper's qualitative *shape* (who wins, where trends point).
Absolute numbers differ from the paper by design: the substrate is our
simulator, not the authors' 2008 testbed. Set ``REPRO_BENCH_SCALE=paper``
to run the full Table-1 sizes.

Figures are computed once per session (they are deterministic) and the
``benchmark`` fixture times a representative single run, so
``--benchmark-only`` produces meaningful timings without re-running
multi-minute sweeps dozens of times.
"""

from __future__ import annotations

import os

import pytest

#: Scale used by all figure benches; override via environment.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "default")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return BENCH_SCALE


def print_block(capsys, text: str) -> None:
    """Print a result table to the real terminal, bypassing capture."""
    with capsys.disabled():
        print()
        print(text)
