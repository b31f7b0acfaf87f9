"""Offline solvers on t-intervals that need fewer than all their EIs.

Each solver either honours ``need`` or refuses the set by naming the
t-interval: none may silently solve the all-required problem instead.
"""

import pytest

from repro.core import (
    BudgetVector,
    Epoch,
    ExecutionInterval,
    ModelError,
    Profile,
    ProfileSet,
    Schedule,
    TInterval,
)
from repro.offline import (
    EnumerationSolver,
    GreedyOfflineSolver,
    LocalRatioApproximation,
    MILPSolver,
    expand_to_unit_width,
)

EPOCH = Epoch(4)
BUDGET = BudgetVector(1)


def _instance(need=None) -> ProfileSet:
    """Two EIs share chronon 1 under a budget of one: all three EIs can
    never be captured, two of them can."""
    return ProfileSet([Profile([TInterval([
        ExecutionInterval(0, 1, 1), ExecutionInterval(1, 1, 1),
        ExecutionInterval(2, 2, 2)], need=need)])])


#: Every offline solver, and whether it honours ``need``.
SOLVERS = {
    "enumeration": (EnumerationSolver().solve, True),
    "milp": (MILPSolver().solve, True),
    "greedy": (GreedyOfflineSolver().solve, False),
    "local-ratio": (LocalRatioApproximation().solve, False),
}


@pytest.mark.parametrize("name", list(SOLVERS))
def test_a_solver_honours_need_or_names_the_tinterval(name):
    solve, honours = SOLVERS[name]
    assert solve(_instance(), EPOCH, BUDGET).report.captured == 0
    if not honours:
        with pytest.raises(ModelError, match=(
                r"t-interval \(0, 0\) needs 2 of its 3")):
            solve(_instance(need=2), EPOCH, BUDGET)
        return
    result = solve(_instance(need=2), EPOCH, BUDGET)
    assert result.report.captured == 1
    assert result.schedule.respects_budget(BUDGET, EPOCH)


def test_the_unit_width_expansion_keeps_the_need():
    expansion = expand_to_unit_width(_instance(need=2))
    assert {eta.need for eta in expansion.expanded.tintervals()} == {2}
    assert expansion.captured_originals(Schedule([(0, 1), (2, 2)])) == \
        {(0, 0)}
