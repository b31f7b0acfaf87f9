"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the
repository root. The benchmark's files are plain scripts in one
directory, so that directory (and ``src/`` for the in-process tracing
test) goes on the path here.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
