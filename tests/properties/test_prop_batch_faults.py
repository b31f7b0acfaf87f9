"""The block kernel's fault plane is the fault layer: the faulty cells
of the conformance matrix's ``block`` and ``online`` lines.

Hypothesis draws every engine's faulty cases in
``tests/conformance/test_matrix.py`` (``-k faulty``); these names keep
pointing at the cells this suite's properties used to assert.
"""

from tests.conformance.engines import check_pinned


class TestBatchFaultEquivalence:
    def test_single_faulty_lane(self):
        check_pinned("123/faulty/K1/", ["block"])

    def test_mixed_mega_block(self):
        check_pinned("2108/faulty/S-EDF", ["block"])

    def test_run_online_engine_batch(self):
        check_pinned("123/faulty/K4/", ["online"])
