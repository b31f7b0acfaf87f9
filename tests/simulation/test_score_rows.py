"""A new policy is one row: a ``ScoreKey`` the reference path, the block
kernel and the event engine all read, with nothing added to ``src``.

The row here is latest-deadline-first, ``finish = -1, chronon = 1``: a
policy no module defines, on every engine, probe for probe. A subclass
that keeps its parent's row runs on the columns; one that overrides
``score`` falls back to the reference and says why; a row too wide for
the lowering's score field is refused before anything runs.
"""

import logging

import pytest

from repro.experiments import make_instance
from repro.online import MRSFPolicy, Policy, ScoreKey
from repro.simulation import BatchUnsupported, federated_run, run_online
from repro.simulation.batch import _make_lanes, run_block
from repro.simulation.columnar import ColumnarInstance

from tests.conformance.cases import (
    CONTENDED_77 as _CONFIG,
    PINNED,
    LoudMRSF,
    QuietMRSF,
)
from tests.conformance.engines import check


def _row_policy(**weights) -> Policy:
    """A one-off policy of the given row."""
    policy = Policy()
    policy.key = ScoreKey(**weights)
    return policy


def _instance():
    return make_instance(_CONFIG, 0)[1]


@pytest.mark.parametrize("faulty", [False, True], ids=["reliable", "faulty"])
@pytest.mark.parametrize("preemptive", [True, False], ids=["P", "NP"])
def test_a_row_policy_is_the_same_on_every_engine(preemptive, faulty):
    """The LDF row's cell of the conformance matrix, on every engine."""
    layer, mode = ("faulty" if faulty else "reliable",
                   "P" if preemptive else "NP")
    case = PINNED[f"77/{layer}/LDF({mode})"]()
    reference = check(case)
    assert reference["probes_used"] > 0
    # It is not S-EDF under another name.
    faults, retry, breaker = case.layer()
    sedf = run_online(case.profiles, case.epoch, case.budget,
                      _row_policy(finish=1), preemptive, faults=faults,
                      retry=retry, breaker=breaker, engine="reference")
    assert list(sedf.schedule.probes()) != reference["probes"]


def _records(caplog):
    return [record for record in caplog.records
            if record.name == "repro.simulation.proxy"]


def test_a_subclass_that_overrides_nothing_runs_on_the_columns(caplog):
    profiles = _instance()
    with caplog.at_level(logging.INFO, logger="repro.simulation"):
        got = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                         QuietMRSF())
    assert _records(caplog) == []
    assert "lowering_windows" in got.extras  # a block result
    want = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                      MRSFPolicy(), engine="reference")
    assert (list(got.schedule.probes()), got.report) == \
        (list(want.schedule.probes()), want.report)


def test_a_subclass_that_overrides_score_falls_back_and_says_so(caplog):
    profiles = _instance()
    with caplog.at_level(logging.INFO, logger="repro.simulation"):
        got = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                         LoudMRSF())
    (record,) = _records(caplog)
    assert record.levelno == logging.INFO
    assert "reference simulator" in record.getMessage()
    assert "'loud-MRSF' (LoudMRSF)" in record.getMessage()
    assert "lowering_windows" not in got.extras
    want = run_online(profiles, _CONFIG.epoch, _CONFIG.budget_vector,
                      MRSFPolicy(), engine="reference")
    assert (list(got.schedule.probes()), got.report) == \
        (list(want.schedule.probes()), want.report)


def test_a_row_wider_than_the_score_field_is_refused(caplog):
    profiles = _instance()
    epoch, budget = _CONFIG.epoch, _CONFIG.budget_vector
    wide = _row_policy(finish=1 << 40)
    col = ColumnarInstance.build(profiles, epoch)
    lane = (wide, True, budget)
    for refuse in (lambda: _make_lanes(col, [lane]),
                   lambda: run_block(profiles, epoch, [lane], columnar=col)):
        with pytest.raises(BatchUnsupported, match=r"score row ScoreKey\("
                           r"finish=1099511627776, .* beyond the \d+-bit "
                           "score field"):
            refuse()
    assert col.windows_built == 0
    with pytest.raises(BatchUnsupported, match="score field"):
        federated_run(profiles, epoch, budget, wide, shards=2)
    # run_online serves it on the reference, where a row has no width —
    # and ranks as S-EDF does.
    with caplog.at_level(logging.INFO, logger="repro.simulation"):
        got = run_online(profiles, epoch, budget, wide)
    assert "score field" in _records(caplog)[0].getMessage()
    want = run_online(profiles, epoch, budget, _row_policy(finish=1))
    assert list(got.schedule.probes()) == list(want.schedule.probes())
