"""The event engine is the reference: the ``event`` line of the
conformance matrix on its pinned instances. Leaves with
``src/repro/simulation/engine.py``, as that line does.
"""

from tests.conformance.engines import check_pinned


class TestEngineEquivalence:
    def test_reliable_runs_identical(self):
        check_pinned("123/reliable/K1/", ["event"])

    def test_faulty_runs_identical(self):
        check_pinned("2108/faulty/", ["event"])
