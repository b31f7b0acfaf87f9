"""Property: proxy accounting survives arbitrary mid-run churn.

Hypothesis draws churn plans — unsorted, past the epoch, profiles
cancelled twice or in the chronon they joined — that the proxy follows,
and asserts the :class:`ProxyStats` invariants after *every* chronon —
not just at the end — so any transient double-count or leak in the
bookkeeping is caught at the step that introduces it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetVector
from repro.online import MEDFPolicy, MRSFPolicy, SEDFPolicy
from repro.runtime import MonitoringProxy, OriginServer
from repro.traces import UpdateTrace

from tests.properties.strategies import epoch, plans

POLICIES = [SEDFPolicy, MRSFPolicy, MEDFPolicy]


class TestChurnInvariants:
    @given(script=plans(), policy_index=st.integers(0, 2),
           budget=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_stats_invariants_hold_after_every_step(
            self, script, policy_index, budget):
        initial, plan = script
        budget_vector = BudgetVector(budget)
        proxy = MonitoringProxy(
            OriginServer(UpdateTrace([], epoch())), epoch(),
            budget_vector, POLICIES[policy_index]())
        client = proxy.register_client()

        for _ in proxy.follow(client, initial, plan):
            proxy.step()

            stats = proxy.stats()
            # Events at the clock before this chronon have landed.
            assert stats.registered == initial.total_tintervals + sum(
                len(event.profile) for event in plan
                if event.action == "add" and event.chronon < proxy.clock)
            assert stats.completed == len(client.mailbox)
            keys = [(n.profile_id, n.tinterval_id)
                    for n in client.mailbox]
            assert len(keys) == len(set(keys)), "duplicate notification"
            # Every t-interval sits in at most one outcome bucket.
            assert (stats.completed + stats.expired + stats.dropped
                    + stats.pending) <= stats.registered
            assert stats.requests_sent == (stats.probes_used
                                           + stats.probes_failed
                                           + stats.hedges)
            assert proxy.schedule.respects_budget(budget_vector, epoch())

        final = proxy.run()
        assert final.pending == 0
        assert final.registered == (final.completed + final.expired
                                    + final.dropped)
