"""Every engine runs its referee's run: one table, every case.

Hypothesis draws cases over every axis an engine takes — t-intervals
that need fewer than all their EIs, policy × P/NP, a budget with
overrides, a fault layer × retry × breaker, a churn plan, a shard
count — one test per fault kind (``-k faulty`` selects the
faulty cells); the pinned instances contend where four drawn resources
rarely do.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conformance.cases import FAULT_KINDS, PINNED, cases
from tests.conformance.engines import check


@pytest.mark.parametrize("faults", FAULT_KINDS, ids=[
    "fault-free" if kind == "none" else f"faulty-{kind}"
    for kind in FAULT_KINDS])
@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_engine_runs_the_referees_run(faults, data):
    check(data.draw(cases(faults)))


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_instance(name):
    case = PINNED[name]()
    # A pinned fault layer fails probes; without one nothing fails.
    assert (check(case)["probes_failed"] > 0) == (case.faults != "none")
