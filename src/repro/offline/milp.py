"""Exact offline solver via mixed-integer linear programming.

Problem 1 has a natural MILP formulation that scipy's HiGHS backend solves
for moderate instances (hundreds of t-intervals):

* binary ``s_{r,j}`` for every *useful* resource-chronon pair (a pair is
  useful when some EI of some t-interval covers it);
* continuous ``y_e in [0, 1]`` per EI with ``y_e <= sum_{j in e} s_{r(e),j}``;
* continuous ``z_eta in [0, 1]`` per t-interval with ``z_eta <= y_e`` for
  every member EI — or, for a t-interval that needs ``q`` of its EIs,
  binary ``z_eta`` with ``q * z_eta <= sum_e y_e``;
* budget rows ``sum_r s_{r,j} <= C_j``;
* objective ``max sum z_eta``.

Only the ``s`` variables (and a quota t-interval's ``z``) need
integrality: once they are integral, the optimal ``y``/``z`` are
automatically 0/1 (they are monotone min-style variables), so the
objective equals the number of captured t-intervals.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.budget import BudgetVector
from repro.core.completeness import evaluate_schedule
from repro.core.errors import SolverCapacityError, SolverError
from repro.core.profile import ProfileSet
from repro.core.schedule import Schedule
from repro.core.timeline import Epoch
from repro.simulation.result import SimulationResult

__all__ = ["MILPSolver"]


class MILPSolver:
    """Optimal schedules through scipy's HiGHS MILP backend.

    Parameters
    ----------
    max_variables:
        Safety cap on the total variable count (default 200k).
    time_limit:
        Optional solver time limit in seconds; when hit, HiGHS returns the
        incumbent, which we still turn into a (possibly sub-optimal)
        schedule with ``extras["proven_optimal"] = 0.0``.
    """

    def __init__(self, max_variables: int = 200_000,
                 time_limit: float | None = None) -> None:
        if max_variables < 1:
            raise ValueError(
                f"max_variables must be >= 1, got {max_variables}"
            )
        self._max_variables = max_variables
        self._time_limit = time_limit
        self._relaxed = False  # set transiently by upper_bound()

    def upper_bound(self, profiles: ProfileSet, epoch: Epoch,
                    budget: BudgetVector) -> float:
        """LP-relaxation upper bound on the optimal *captured count*.

        Dropping the integrality of the probe variables yields a bound
        computable on instances far beyond the exact solver's reach; any
        schedule's captured count is ≤ this value. Returns ``0.0`` for
        empty profile sets.
        """
        if profiles.total_tintervals == 0:
            return 0.0
        self._relaxed = True
        try:
            result = self.solve(profiles, epoch, budget)
        finally:
            self._relaxed = False
        return float(result.extras["milp_objective"])

    def solve(self, profiles: ProfileSet, epoch: Epoch,
              budget: BudgetVector) -> SimulationResult:
        """Compute an optimal (or incumbent) schedule.

        Raises
        ------
        SolverCapacityError
            When the formulation exceeds ``max_variables``.
        SolverError
            When HiGHS reports an infeasible/failed solve.
        """
        # Loaded on first use — no online path needs scipy, so ``import
        # repro`` does not pay for it — and before the clock starts.
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        started = time.perf_counter()

        # ---- enumerate variables -------------------------------------
        probe_index: dict[tuple[int, int], int] = {}  # (resource, chronon)
        ei_vars: list[tuple[int, int, int]] = []      # (resource, start, fin)
        ei_index: dict[tuple[int, int, int], int] = {}
        tinterval_eis: list[list[int]] = []
        needs: list[int] = []

        for eta in profiles.tintervals():
            needs.append(eta.need)
            members: list[int] = []
            for ei in eta:
                key = (ei.resource_id, max(1, ei.start),
                       min(epoch.last, ei.finish))
                if key[1] > key[2]:
                    # EI entirely outside the epoch: uncapturable.
                    members.append(-1)
                    continue
                if key not in ei_index:
                    ei_index[key] = len(ei_vars)
                    ei_vars.append(key)
                    for chronon in range(key[1], key[2] + 1):
                        probe_index.setdefault(
                            (key[0], chronon), len(probe_index))
                members.append(ei_index[key])
            tinterval_eis.append(members)

        num_probes = len(probe_index)
        num_eis = len(ei_vars)
        num_tintervals = len(tinterval_eis)
        total = num_probes + num_eis + num_tintervals
        if total > self._max_variables:
            raise SolverCapacityError(
                f"MILP would need {total} variables "
                f"(cap {self._max_variables})"
            )
        if num_tintervals == 0:
            return SimulationResult(
                label="offline-milp", schedule=Schedule(),
                report=evaluate_schedule(profiles, Schedule()),
                probes_used=0,
                runtime_seconds=time.perf_counter() - started,
            )

        def probe_var(resource: int, chronon: int) -> int:
            return probe_index[(resource, chronon)]

        def ei_var(index: int) -> int:
            return num_probes + index

        def tinterval_var(index: int) -> int:
            return num_probes + num_eis + index

        # ---- constraints ---------------------------------------------
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        upper: list[float] = []

        def add_row(terms, bound: float = 0.0) -> None:
            """One row ``sum(value * var for var, value in terms) <=
            bound``."""
            for var, value in terms:
                rows.append(len(upper))
                cols.append(var)
                vals.append(value)
            upper.append(bound)

        # y_e - sum_j s_{r,j} <= 0
        for index, (resource, start, finish) in enumerate(ei_vars):
            add_row([(ei_var(index), 1.0)]
                    + [(probe_var(resource, chronon), -1.0)
                       for chronon in range(start, finish + 1)])

        # z_eta - y_e <= 0 for each member EI, or q z_eta - sum_e y_e <= 0
        # where eta needs q < size of them; z of an uncapturable
        # t-interval is pinned to 0.
        pinned_zero: list[int] = []
        quota: list[int] = []
        for t_index, (members, need) in enumerate(zip(tinterval_eis,
                                                      needs)):
            capturable = [member for member in members if member >= 0]
            if len(capturable) < need:
                pinned_zero.append(t_index)
            elif need < len(members):
                quota.append(t_index)
                add_row([(tinterval_var(t_index), float(need))]
                        + [(ei_var(member), -1.0) for member in capturable])
            else:
                for member in members:
                    add_row([(tinterval_var(t_index), 1.0),
                             (ei_var(member), -1.0)])

        # budget rows: sum_r s_{r,j} <= C_j
        by_chronon: dict[int, list[int]] = {}
        for (resource, chronon), var in probe_index.items():
            by_chronon.setdefault(chronon, []).append(var)
        for chronon, variables in sorted(by_chronon.items()):
            add_row([(var, 1.0) for var in variables],
                    float(budget.at(chronon)))

        matrix = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(upper), total))
        constraints = LinearConstraint(
            matrix, lb=-np.inf, ub=np.array(upper))

        # ---- objective / bounds / integrality ------------------------
        objective = np.zeros(total)
        for t_index in range(num_tintervals):
            objective[tinterval_var(t_index)] = -1.0  # milp minimizes

        lower_bounds = np.zeros(total)
        upper_bounds = np.ones(total)
        for t_index in pinned_zero:
            upper_bounds[tinterval_var(t_index)] = 0.0
        bounds = Bounds(lower_bounds, upper_bounds)

        integrality = np.zeros(total)
        if not self._relaxed:
            # Probes must be integral, and a quota t-interval's z: its
            # row alone would pay partial credit for partial capture.
            integrality[:num_probes] = 1
            for t_index in quota:
                integrality[tinterval_var(t_index)] = 1

        options: dict[str, float] = {}
        if self._time_limit is not None:
            options["time_limit"] = self._time_limit

        result = milp(c=objective, constraints=constraints, bounds=bounds,
                      integrality=integrality, options=options or None)
        if result.x is None:
            raise SolverError(
                f"MILP solve failed: status={result.status} "
                f"({result.message})"
            )

        schedule = Schedule()
        for (resource, chronon), var in probe_index.items():
            if result.x[var] > 0.5:
                schedule.add_probe(resource, chronon)

        runtime = time.perf_counter() - started
        report = evaluate_schedule(profiles, schedule)
        return SimulationResult(
            label="offline-milp",
            schedule=schedule,
            report=report,
            probes_used=len(schedule),
            runtime_seconds=runtime,
            extras={
                "proven_optimal": 1.0 if result.status == 0 else 0.0,
                "milp_objective": float(-result.fun),
                "variables": float(total),
            },
        )
