"""Tests for the DSL compiler (resolution + materialization)."""

import pytest

from repro.core import Epoch, Resource, ResourceCatalog
from repro.dsl import DslSemanticError, compile_text
from repro.traces import UpdateEvent, UpdateTrace


@pytest.fixture
def epoch() -> Epoch:
    return Epoch(50)


@pytest.fixture
def trace(epoch) -> UpdateTrace:
    return UpdateTrace(
        [UpdateEvent(3, 0), UpdateEvent(10, 0),
         UpdateEvent(5, 1), UpdateEvent(12, 1),
         UpdateEvent(7, 2), UpdateEvent(20, 2)],
        epoch)


@pytest.fixture
def catalog() -> ResourceCatalog:
    catalog = ResourceCatalog()
    catalog.add(Resource.create(0, "market-a"))
    catalog.add(Resource.create(1, "market-b"))
    catalog.add(Resource.create(2, "feed/cnn"))
    return catalog


class TestResolution:
    def test_names_resolved_through_catalog(self, trace, epoch, catalog):
        compiled = compile_text(
            "profile p { watch market-a, market-b within 10; }",
            trace, epoch, catalog=catalog)
        assert compiled.profiles[0].resource_ids == frozenset({0, 1})

    def test_numeric_ids_without_catalog(self, trace, epoch):
        compiled = compile_text(
            "profile p { watch 0, 1 within 10; }", trace, epoch)
        assert compiled.profiles[0].resource_ids == frozenset({0, 1})

    def test_named_resource_without_catalog_rejected(self, trace, epoch):
        with pytest.raises(DslSemanticError, match="needs a catalog"):
            compile_text("profile p { watch market-a within 10; }",
                         trace, epoch)

    def test_unknown_name_rejected(self, trace, epoch, catalog):
        with pytest.raises(DslSemanticError, match="unknown resource"):
            compile_text("profile p { watch nasdaq within 10; }",
                         trace, epoch, catalog=catalog)

    def test_numeric_id_validated_against_catalog(self, trace, epoch,
                                                  catalog):
        with pytest.raises(DslSemanticError, match="not in catalog"):
            compile_text("profile p { watch 9 within 10; }",
                         trace, epoch, catalog=catalog)

    def test_duplicate_resources_rejected(self, trace, epoch):
        with pytest.raises(DslSemanticError, match="duplicate resources"):
            compile_text("profile p { watch 0, 0 within 10; }",
                         trace, epoch)


class TestMaterialization:
    def test_watch_builds_complex_tintervals(self, trace, epoch):
        compiled = compile_text(
            "profile p { watch 0, 1 indexed within 10; }", trace, epoch)
        profile = compiled.profiles[0]
        assert profile.rank == 2
        assert len(profile) == 2  # two update rounds on each resource

    def test_subscribe_builds_rank1(self, trace, epoch):
        compiled = compile_text(
            "profile p { subscribe 0, 2 until overwrite; }", trace,
            epoch)
        profile = compiled.profiles[0]
        assert profile.rank == 1
        assert len(profile) == 4  # 2 EIs per resource

    def test_multiple_statements_concatenate(self, trace, epoch):
        compiled = compile_text("""
            profile p {
                watch 0, 1 within 10;
                subscribe 2 until overwrite;
            }
        """, trace, epoch)
        assert len(compiled.profiles[0]) == 4  # 2 watch + 2 subscribe

    def test_profile_names_mapped(self, trace, epoch):
        compiled = compile_text(
            "profile alpha { watch 0 within 5; } "
            "profile beta { watch 1 within 5; }", trace, epoch)
        assert compiled.names == {0: "alpha", 1: "beta"}

    def test_overlap_grouping_applied(self, trace, epoch):
        compiled = compile_text(
            "profile p { watch 0, 1 overlap within 10; }", trace, epoch)
        for eta in compiled.profiles[0]:
            eis = list(eta)
            assert eis[0].overlaps(eis[1])


class TestQuotas:
    def test_quota_clause_populates_map(self, trace, epoch):
        compiled = compile_text(
            "profile p { watch 0, 1, 2 within 10 quota 2; }",
            trace, epoch)
        for eta in compiled.profiles[0]:
            assert eta.need == 2

    def test_no_quota_defaults_to_all(self, trace, epoch):
        compiled = compile_text(
            "profile p { watch 0, 1 within 10; }", trace, epoch)
        for eta in compiled.profiles[0]:
            assert eta.need == eta.size

    def test_quota_exceeding_arity_rejected(self, trace, epoch):
        with pytest.raises(DslSemanticError, match="exceeds"):
            compile_text("profile p { watch 0, 1 within 10 quota 3; }",
                         trace, epoch)

    def test_quota_scoped_to_statement(self, trace, epoch):
        compiled = compile_text("""
            profile p {
                watch 0, 1 within 10 quota 1;
                watch 0, 2 within 10;
            }
        """, trace, epoch)
        profile = compiled.profiles[0]
        quotas = [eta.need for eta in profile]
        # First statement's t-intervals have quota 1, the rest their size.
        assert 1 in quotas
        assert any(quota == 2 for quota in quotas)


class TestDocumentLevelSemantics:
    def test_duplicate_profile_names_rejected(self, trace, epoch):
        with pytest.raises(DslSemanticError, match="duplicate profile"):
            compile_text(
                "profile p { watch 0 within 5; } "
                "profile p { watch 1 within 5; }", trace, epoch)

    def test_end_to_end_with_runtime(self, trace, epoch):
        """DSL -> profiles -> simulator: the full front door."""
        from repro.core import BudgetVector
        from repro.online import MRSFPolicy
        from repro.simulation import run_online

        compiled = compile_text(
            "profile p { watch 0, 1 overlap within 10; }", trace, epoch)
        result = run_online(compiled.profiles, epoch, BudgetVector(1),
                            MRSFPolicy())
        assert result.report.total == len(compiled.profiles[0])
