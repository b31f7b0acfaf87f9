"""Cross-layer integration: templates -> quotas -> simulation, and the CLI."""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    Profile,
    ProfileSet,
    TInterval,
    validate_instance,
)
from repro.online import make_policy
from repro.simulation import run_online
from repro.traces import PoissonUpdateModel
from repro.workloads import (
    AuctionWatchTemplate,
    OverwriteRestriction,
    SingleResourceTemplate,
    WindowRestriction,
)


@pytest.fixture(scope="module")
def world():
    """A watched pair, a 2-of-3 digest and a two-feed subscription."""
    epoch = Epoch(200)
    trace = PoissonUpdateModel(10, seed=31).generate(range(8), epoch)
    pair = AuctionWatchTemplate(WindowRestriction(8), grouping="overlap")
    rounds = AuctionWatchTemplate(WindowRestriction(10)).build_profile(
        [2, 3, 4], trace, epoch)
    inbox = SingleResourceTemplate(OverwriteRestriction())
    profiles = ProfileSet([
        pair.build_profile([0, 1], trace, epoch, name="pair"),
        Profile([TInterval(eta.eis, need=min(2, eta.size))
                 for eta in rounds], name="digest"),
        inbox.build_profile([5, 6], trace, epoch, name="inbox"),
    ])
    return epoch, profiles


class TestTemplatesToSimulation:
    def test_profiles_validate_clean(self, world):
        epoch, profiles = world
        report = validate_instance(profiles, epoch, BudgetVector(1))
        assert report.ok, [str(d) for d in report.errors()]

    def test_quota_run_captures_no_less(self, world):
        epoch, profiles = world
        assert {eta.need for eta in profiles[1]} == {2}
        all_required = ProfileSet(
            Profile([TInterval(eta.eis) for eta in profile])
            for profile in profiles)
        plain = run_online(all_required, epoch, BudgetVector(1),
                           make_policy("MRSF"))
        relaxed = run_online(profiles, epoch, BudgetVector(1),
                             make_policy("MRSF"))
        assert relaxed.report.captured >= plain.report.captured


class TestCliFigurePair:
    def test_fig7_smoke_via_cli_with_output(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["fig7", "--scale", "smoke",
                     "--output", str(tmp_path)]) == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert any("panel1" in name for name in names)
        assert any("panel2" in name for name in names)
        assert "Figure 7(1)" in capsys.readouterr().out
