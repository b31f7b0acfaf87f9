"""The block kernel is the reference: the ``block`` and ``online`` lines
of the conformance matrix on its pinned instances.

Hypothesis draws every engine's cases in
``tests/conformance/test_matrix.py``; these names keep pointing at the
cells this suite's properties used to assert.
"""

from tests.conformance.engines import check_pinned


class TestBatchEquivalence:
    def test_single_lane_block(self):
        check_pinned("123/reliable/K1/", ["block"])

    def test_full_lineup_block(self):
        check_pinned("77/", ["block"])

    def test_diverging_budget_lanes(self):
        check_pinned("123/reliable/K4/", ["block"])

    def test_run_online_engine_batch(self):
        check_pinned("123/reliable/K1/", ["online"])

    def test_run_online_batch_falls_back_for_a_policy_without_a_row(self):
        check_pinned("2108/faulty/LOUD-MRSF", ["online", "block"])
