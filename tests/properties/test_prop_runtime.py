"""Property-based agreement between the runtime proxy and the simulator.

The runtime (servers + notifications) and the measurement simulator share
the scheduling core; on any instance they must capture exactly the same
t-intervals, and every notification must correspond to a capture — the
``live`` and ``live-async`` lines of the conformance matrix
(``tests/conformance``), whose pinned cells the first two names keep
pointing at.
"""

from hypothesis import given, settings

from repro.core import BudgetVector, Profile, TInterval
from repro.online import MRSFPolicy
from repro.runtime import MonitoringProxy, OriginServer
from repro.traces import UpdateTrace

from tests.conformance.engines import check_pinned
from tests.properties.strategies import epoch, profile_sets


def _bare_copy(profiles):
    return [Profile([TInterval(eta.eis) for eta in profile],
                    name=profile.name)
            for profile in profiles]


class TestRuntimeSimulatorAgreement:
    def test_same_capture_counts(self):
        check_pinned("123/reliable/K1/", ["live"])

    def test_identical_probe_schedules(self):
        check_pinned("77/", ["live", "live-async"])

    @given(profiles=profile_sets())
    @settings(max_examples=30, deadline=None)
    def test_accounting_invariant(self, profiles):
        server = OriginServer(UpdateTrace([], epoch()))
        proxy = MonitoringProxy(server, epoch(), BudgetVector(1),
                                MRSFPolicy())
        client = proxy.register_client()
        for profile in _bare_copy(profiles):
            proxy.register_profile(client, profile)
        stats = proxy.run()
        assert stats.registered == (stats.completed + stats.expired
                                    + stats.dropped)
