"""Churn equivalence: incremental insert/delete IS the full rebuild.

This is a line of the conformance matrix: ``run_churned`` (the plan
lowered to lifetimes), ``federated_run`` over that lowering and the
event engine's splicing and rebuilding runs must each be the live
proxy's run (``tests/conformance``); the names below keep pointing at
its pinned churn scenario.
"""

from tests.conformance.engines import check_pinned


class TestEngineChurnEquivalence:
    def test_incremental_matches_rebuild(self):
        check_pinned("29/reliable/", ["churned", "event"])

    def test_faulty_churn_matches_rebuild(self):
        check_pinned("29/faulty/", ["churned", "event"])

    def test_churned_accounting_balances(self):
        check_pinned("29/reliable/M", ["churned"])
