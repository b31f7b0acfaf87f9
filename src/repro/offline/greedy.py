"""A greedy offline baseline (no local-ratio machinery).

Sorts all t-intervals cheapest-and-most-urgent first (fewest EIs, then
earliest latest-finish) and accepts each one that stays jointly
schedulable. This isolates the value of the Local-Ratio decomposition in
ablations: both solvers share the exact matching-based feasibility check
and differ only in the acceptance *order*.
"""

from __future__ import annotations

import time

from repro.core.budget import BudgetVector
from repro.core.completeness import evaluate_schedule, tally
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.offline.matching import ProbeAssigner, require_every_ei
from repro.simulation.result import SimulationResult

__all__ = ["GreedyOfflineSolver"]


class GreedyOfflineSolver:
    """Accept t-intervals greedily in (size, deadline) order."""

    def solve(self, profiles: ProfileSet, epoch: Epoch,
              budget: BudgetVector) -> SimulationResult:
        """Produce a feasible schedule; completeness = accepted set.

        Raises :class:`~repro.core.errors.ModelError` for a t-interval
        that needs fewer than all its EIs."""
        require_every_ei(profiles.tintervals(), "the greedy solver")
        started = time.perf_counter()
        order = sorted(
            profiles.tintervals(),
            key=lambda eta: (eta.size, eta.latest_finish,
                             eta.profile_id, eta.tinterval_id),
        )
        assigner = ProbeAssigner(epoch, budget)
        accepted_keys: set[tuple[int, int]] = set()
        for eta in order:
            if assigner.try_add(eta):
                accepted_keys.add((eta.profile_id, eta.tinterval_id))

        schedule = assigner.schedule()
        report = tally(profiles, lambda eta: (
            eta.profile_id, eta.tinterval_id) in accepted_keys)
        runtime = time.perf_counter() - started
        return SimulationResult(
            label="offline-greedy",
            schedule=schedule,
            report=report,
            probes_used=len(schedule),
            runtime_seconds=runtime,
            extras={
                "gc_with_free_riders":
                    evaluate_schedule(profiles, schedule).gc,
            },
        )
