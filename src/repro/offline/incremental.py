"""Incremental Local-Ratio under live profile churn (``P^[1]``).

:class:`IncrementalLocalRatio` keeps the offline pipeline's derived
structures alive across profile inserts and deletes instead of
rebuilding them per solve:

* **Conflict adjacency** — the sweep-line demand-class structure of
  :func:`repro.offline.conflict.unit_conflict_adjacency` is maintained
  under :meth:`add_profile`/:meth:`remove_profile`: an inserted
  t-interval joins its demand class at each chronon it loads and gains
  edges only to classes whose resource union overflows that chronon's
  budget — O(classes touched) per t-interval, not O(m^2); a delete
  unlinks the key from its neighbors and classes. The resulting edge
  set is *identical* to a from-scratch build over the surviving
  profiles (property-tested).
* **Demand maps** — shared with every other consumer through the
  bounded ``lru_cache`` in :mod:`repro.offline.conflict`; repeated
  resolves after churn re-hit the cache instead of recomputing.
  :meth:`close` releases them via
  :func:`~repro.offline.conflict.clear_demand_cache`.
* **The Hall-precheck assigner** — a live
  :class:`~repro.offline.matching.ProbeAssigner` carries the accepted
  selection between resolves. :meth:`resolve` re-runs the lazy-heap
  decomposition over the maintained adjacency, then *diffs* the new
  acceptance against the surviving one: departed t-intervals are
  ``remove``\\ d (the Fenwick start/finish trees update in place) and
  newcomers ``try_add``\\ ed — survivors, typically the vast majority
  under modest churn, are never re-matched.

The exactness contract: after any interleaving of adds and removes,
:meth:`resolve` returns precisely what
``LocalRatioApproximation(engine="fast").solve()`` returns on a
from-scratch :class:`~repro.core.profile.ProfileSet` of the surviving
profiles (taken in ascending live-id order). The decomposition itself
is deliberately *not* warm-started from the previous stack — local
ratio's selection order is globally coupled, so reusing old rounds
would silently diverge from the from-scratch referee; re-running it
over incrementally-maintained inputs keeps the identity while the
expensive parts (adjacency, demand maps, matching) stay incremental.
"""

from __future__ import annotations

import time

from repro.core.budget import BudgetVector
from repro.core.completeness import evaluate_schedule, tally
from repro.core.errors import ModelError
from repro.core.intervals import TInterval
from repro.core.profile import Profile, ProfileSet
from repro.core.timeline import Epoch
from repro.offline.conflict import (
    Adjacency,
    TKey,
    clear_demand_cache,
    demand_map,
)
from repro.offline.local_ratio import _decompose_fast, fractional_guidance
from repro.offline.matching import ProbeAssigner, require_every_ei
from repro.simulation.result import SimulationResult

__all__ = ["IncrementalLocalRatio"]


class IncrementalLocalRatio:
    """Live-churn Local-Ratio solver for unit-width profile sets.

    Parameters mirror :class:`~repro.offline.local_ratio.
    LocalRatioApproximation`; ``engine`` is implicitly ``"fast"`` (the
    reference engine has no incremental form).
    """

    def __init__(self, epoch: Epoch, budget: BudgetVector,
                 use_lp: bool = True,
                 max_lp_variables: int = 50_000) -> None:
        self.epoch = epoch
        self.budget = budget
        self._use_lp = use_lp
        self._max_lp_variables = max_lp_variables

        self._profiles: dict[int, Profile] = {}
        self._next_profile_id = 0
        self._etas: dict[TKey, TInterval] = {}
        self._demands: dict[TKey, dict[int, frozenset[int]]] = {}
        self._adjacency: Adjacency = {}
        # chronon -> demand class (resource frozenset) -> member keys.
        self._by_chronon: dict[int, dict[frozenset[int], set[TKey]]] = {}
        self._assigner = ProbeAssigner(epoch, budget, fast=True)
        self._accepted: dict[TKey, TInterval] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    @property
    def live_profile_ids(self) -> list[int]:
        """Ids of currently-registered profiles, ascending."""
        return sorted(self._profiles)

    @property
    def adjacency(self) -> Adjacency:
        """The live conflict adjacency, keyed by true (live) ids.

        Identical — modulo :class:`~repro.core.profile.ProfileSet`'s
        dense relabel — to a from-scratch
        :func:`~repro.offline.conflict.unit_conflict_adjacency` over the
        live set; the property suite asserts exactly that.
        """
        return self._adjacency

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def add_profile(self, profile: Profile) -> int:
        """Register a unit-width profile; returns its assigned id.

        O(EIs + touched demand classes) — each of the profile's
        t-intervals is linked into the per-chronon class structure and
        gains edges to conflicting classes only.
        """
        if not profile.is_unit_width:
            raise ModelError(
                "IncrementalLocalRatio requires unit-width (P^[1]) "
                "profiles")
        profile_id = self._next_profile_id
        attached = profile.attached(profile_id)
        require_every_ei(attached, "IncrementalLocalRatio")
        self._next_profile_id += 1
        self._profiles[profile_id] = attached
        budget = self.budget
        for eta in attached:
            demands = demand_map(eta)
            # Self-infeasible t-intervals never enter the graph (they
            # can never be captured) but still count in the totals.
            if any(len(resources) > budget.at(chronon)
                   for chronon, resources in demands.items()):
                continue
            key = (eta.profile_id, eta.tinterval_id)
            self._etas[key] = eta
            self._demands[key] = demands
            neighbors: set[TKey] = set()
            for chronon, resources in demands.items():
                capacity = budget.at(chronon)
                classes = self._by_chronon.setdefault(chronon, {})
                for other_set, members in classes.items():
                    if other_set == resources:
                        continue
                    if len(other_set | resources) > capacity:
                        neighbors.update(members)
                        for member in members:
                            self._adjacency[member].add(key)
                classes.setdefault(resources, set()).add(key)
            self._adjacency[key] = neighbors
        return profile_id

    def remove_profile(self, profile_id: int) -> None:
        """Cancel a registered profile, unlinking all its t-intervals."""
        profile = self._profiles.pop(profile_id, None)
        if profile is None:
            raise ModelError(f"unknown profile id {profile_id!r}")
        for eta in profile:
            key = (eta.profile_id, eta.tinterval_id)
            demands = self._demands.pop(key, None)
            if demands is None:
                continue  # was self-infeasible: never linked
            self._etas.pop(key)
            for neighbor in self._adjacency.pop(key):
                self._adjacency[neighbor].discard(key)
            for chronon, resources in demands.items():
                classes = self._by_chronon[chronon]
                members = classes[resources]
                members.discard(key)
                if not members:
                    del classes[resources]
                    if not classes:
                        del self._by_chronon[chronon]

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------

    def resolve(self) -> SimulationResult:
        """Re-solve over the live set; from-scratch-identical result.

        The decomposition and unwind run fresh over the maintained
        adjacency (see the module docstring for why); the live
        assigner is then *diffed* to the new acceptance — only departed
        and newly-accepted t-intervals touch the matching structures.
        """
        if self._use_lp:
            # As in LocalRatioApproximation.solve: scipy loads before
            # the clock starts.
            import scipy.optimize  # noqa: F401
        started = time.perf_counter()
        keys: list[TKey] = sorted(self._adjacency)
        guidance = fractional_guidance(
            keys, self._etas, self.epoch, self.budget, True,
            self._demands, use_lp=self._use_lp,
            max_lp_variables=self._max_lp_variables)
        stack = _decompose_fast(keys, self._etas, self._adjacency,
                                guidance)

        # The fresh unwind fixes the accepted set and the reported
        # probe schedule (insertion order matters to Schedule output,
        # so the report must come from an assigner filled in unwind
        # order, exactly like the batch solver's).
        fresh = ProbeAssigner(self.epoch, self.budget, fast=True)
        accepted: list[TKey] = []
        accepted_set: set[TKey] = set()
        etas = self._etas
        for key in reversed(stack):
            if fresh.try_add(etas[key]):
                accepted.append(key)
                accepted_set.add(key)
        leftovers = sorted(
            (key for key in keys if key not in accepted_set),
            key=lambda key: (etas[key].size, etas[key].latest_finish,
                             key),
        )
        for key in leftovers:
            if fresh.try_add(etas[key]):
                accepted.append(key)
                accepted_set.add(key)
        schedule = fresh.schedule()

        # Diff the live assigner toward the new acceptance. Removals
        # first: survivors plus newcomers are a subset of the (feasible)
        # new acceptance at every intermediate step, so each try_add is
        # guaranteed to succeed for unit-width inputs.
        for key in [k for k in self._accepted if k not in accepted_set]:
            self._assigner.remove(self._accepted.pop(key))
        for key in accepted:
            if key not in self._accepted:
                if not self._assigner.try_add(etas[key]):
                    raise ModelError(
                        f"live assigner rejected {key!r} accepted by "
                        "the fresh unwind — matching state corrupted")
                self._accepted[key] = etas[key]

        runtime = time.perf_counter() - started
        live = [profile for _pid, profile in sorted(self._profiles.items())]
        report = tally(live, lambda eta: (
            eta.profile_id, eta.tinterval_id) in accepted_set)
        live_set = ProfileSet(live)
        with_free_riders = evaluate_schedule(live_set, schedule)
        return SimulationResult(
            label="offline-approx",
            schedule=schedule,
            report=report,
            probes_used=len(schedule),
            runtime_seconds=runtime,
            extras={
                "accepted": float(len(accepted)),
                "candidates": float(len(keys)),
                "unit_width_input": 1.0,
                "gc_with_free_riders": with_free_riders.gc,
                "fast_engine": 1.0,
                "incremental": 1.0,
            },
        )

    def live_schedule(self):
        """The live assigner's current schedule (diff-maintained)."""
        return self._assigner.schedule()

    def close(self) -> None:
        """Epoch teardown: drop all state and the shared demand cache."""
        self._profiles.clear()
        self._etas.clear()
        self._demands.clear()
        self._adjacency.clear()
        self._by_chronon.clear()
        self._accepted.clear()
        self._assigner = ProbeAssigner(self.epoch, self.budget, fast=True)
        clear_demand_cache()
