"""A fault source is a ``FaultSpec``, a ``FaultInjector`` or ``None``.

Every run that takes a fault argument refuses anything else with a
``TypeError`` naming its type — before a chronon runs, on every engine,
so nothing reaches the reference (the live proxy) through a fallback.
"""

import pytest

from repro.core import BudgetVector
from repro.faults import FaultInjector, FaultSpec, UnreliableServer
from repro.faults.model import OK_DECISION
from repro.online import MRSFPolicy
from repro.runtime import OriginServer
from repro.simulation import run_churned, run_online
from repro.simulation.batch import FaultLane, run_block

from tests.conformance.cases import HAND_EPOCH, HAND_INITIAL


class DuckFaults:
    """Answers every probe like an injector, without being one."""

    def begin_chronon(self, chronon):
        pass

    def decide(self, resource_id, chronon, attempt=0):
        return OK_DECISION


class QuietInjector(FaultInjector):
    """A subclass: its ``decide`` could answer anything."""


def _args():
    return HAND_INITIAL, HAND_EPOCH, BudgetVector(1), MRSFPolicy()


BOUNDARIES = {
    "run_online-batch": lambda faults: run_online(*_args(), faults=faults),
    "run_online-reference": lambda faults: run_online(
        *_args(), faults=faults, engine="reference"),
    "FaultLane": FaultLane,
    # A lane carries its source in a FaultLane, never bare.
    "run_block": lambda faults: run_block(
        HAND_INITIAL, HAND_EPOCH,
        [(MRSFPolicy(), True, BudgetVector(1), 0, faults)]),
    "run_churned": lambda faults: run_churned(*_args(), faults=faults),
    "UnreliableServer": lambda faults: UnreliableServer(
        OriginServer(), faults),
}


@pytest.mark.parametrize("source", [DuckFaults, QuietInjector],
                         ids=["duck-typed", "subclass"])
@pytest.mark.parametrize("boundary", list(BOUNDARIES))
def test_anything_else_is_a_type_error(boundary, source):
    faults = source(FaultSpec()) if source is QuietInjector else source()
    with pytest.raises(TypeError, match=source.__name__):
        BOUNDARIES[boundary](faults)

