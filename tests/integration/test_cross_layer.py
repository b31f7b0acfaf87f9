"""Cross-layer integration: DSL -> JSON -> runtime -> quotas in one flow."""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    Profile,
    ProfileSet,
    TInterval,
    validate_instance,
)
from repro.dsl import compile_text, format_document, parse
from repro.io import load_profiles, save_profiles
from repro.online import make_policy
from repro.simulation import run_online
from repro.traces import PoissonUpdateModel

SPEC = """
profile pair {
    watch 0, 1 overlap within 8;
}
profile digest {
    watch 2, 3, 4 within 10 quota 2;
}
profile inbox {
    subscribe 5, 6 until overwrite;
}
"""


@pytest.fixture(scope="module")
def world():
    epoch = Epoch(200)
    trace = PoissonUpdateModel(10, seed=31).generate(range(8), epoch)
    compiled = compile_text(SPEC, trace, epoch)
    return epoch, trace, compiled


class TestDslToSimulation:
    def test_compiled_profiles_validate_clean(self, world):
        epoch, _trace, compiled = world
        report = validate_instance(compiled.profiles, epoch,
                                   BudgetVector(1))
        assert report.ok, [str(d) for d in report.errors()]

    def test_quota_run_uses_dsl_quotas(self, world):
        epoch, _trace, compiled = world
        assert {eta.need for eta in compiled.profiles[1]} == {2}
        all_required = ProfileSet(
            Profile([TInterval(eta.eis) for eta in profile])
            for profile in compiled.profiles)
        plain = run_online(all_required, epoch, BudgetVector(1),
                           make_policy("MRSF"))
        relaxed = run_online(compiled.profiles, epoch, BudgetVector(1),
                             make_policy("MRSF"))
        assert relaxed.report.captured >= plain.report.captured

    def test_round_trip_through_json(self, world, tmp_path):
        epoch, _trace, compiled = world
        path = tmp_path / "profiles.json"
        save_profiles(compiled.profiles, path)
        reloaded = load_profiles(path)
        assert list(reloaded.tintervals()) == \
            list(compiled.profiles.tintervals())
        first = run_online(compiled.profiles, epoch, BudgetVector(1),
                           make_policy("M-EDF"))
        second = run_online(reloaded, epoch, BudgetVector(1),
                            make_policy("M-EDF"))
        assert first.report.captured == second.report.captured
        assert list(first.schedule.probes()) == \
            list(second.schedule.probes())

    def test_canonical_form_compiles_identically(self, world):
        epoch, trace, compiled = world
        canonical = format_document(parse(SPEC))
        recompiled = compile_text(canonical, trace, epoch)
        assert recompiled.profiles.total_tintervals == \
            compiled.profiles.total_tintervals
        first = run_online(compiled.profiles, epoch, BudgetVector(1),
                           make_policy("MRSF"))
        second = run_online(recompiled.profiles, epoch, BudgetVector(1),
                            make_policy("MRSF"))
        assert first.report.captured == second.report.captured


class TestCliFigurePair:
    def test_fig7_smoke_via_cli_with_output(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["fig7", "--scale", "smoke",
                     "--output", str(tmp_path)]) == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert any("panel1" in name for name in names)
        assert any("panel2" in name for name in names)
        assert "Figure 7(1)" in capsys.readouterr().out
