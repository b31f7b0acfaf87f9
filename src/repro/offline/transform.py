"""The P -> P^[1] transformation (Proposition 2 machinery).

Proposition 2 lets an algorithm for unit-width profiles (``P^[1]``) serve
general profiles. The paper notes the transformation from the general
setting to the split-interval setting may be exponential; this module
implements that honest, exponential expansion:

    every general t-interval ``eta = {I_1, ..., I_k}`` becomes the family
    of *alternative* unit-width t-intervals
    ``{(c_1, ..., c_k) : c_i in window(I_i)}`` — capturing any one
    alternative captures ``eta`` (a probe tuple hitting one chronon per
    EI window is exactly a capture of ``eta``).

The expansion tracks the alternative -> original mapping so solutions on
the expansion evaluate back on the original instance, and guards against
combinatorial explosion with a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.core.errors import SolverCapacityError
from repro.core.intervals import ExecutionInterval, TInterval
from repro.core.profile import Profile, ProfileSet
from repro.core.schedule import Schedule

__all__ = ["UnitWidthExpansion", "expand_to_unit_width"]

TKey = tuple[int, int]


@dataclass(frozen=True, slots=True)
class UnitWidthExpansion:
    """Result of expanding a general profile set to ``P^[1]`` form.

    Attributes
    ----------
    original:
        The profile set that was expanded.
    expanded:
        A ``P^[1]`` profile set; one profile per original profile, whose
        t-intervals are all alternatives of all original t-intervals.
    alternative_of:
        Maps each expanded t-interval key ``(profile_id, tinterval_id)``
        to its original t-interval key.
    """

    original: ProfileSet
    expanded: ProfileSet
    alternative_of: dict[TKey, TKey]

    def captured_originals(self, schedule: Schedule) -> set[TKey]:
        """Original t-intervals captured by a schedule on the expansion.

        Because an alternative is captured exactly when its chronon tuple
        is fully probed, an original t-interval is captured iff any of its
        alternatives is — which coincides with direct evaluation of the
        schedule against the original windows.
        """
        captured: set[TKey] = set()
        for profile in self.original:
            for eta in profile:
                if schedule.captures_tinterval(eta):
                    captured.add((eta.profile_id, eta.tinterval_id))
        return captured

    def alternatives_of(self, original_key: TKey) -> list[TKey]:
        """All expanded alternatives of one original t-interval."""
        return [expanded_key
                for expanded_key, owner in self.alternative_of.items()
                if owner == original_key]


def expand_to_unit_width(profiles: ProfileSet,
                         max_alternatives: int = 100_000
                         ) -> UnitWidthExpansion:
    """Expand every t-interval into its unit-width alternatives.

    Parameters
    ----------
    profiles:
        The general profile set.
    max_alternatives:
        Total cap on generated alternatives; exceeded caps raise
        :class:`SolverCapacityError` (the expansion is exponential in the
        t-interval rank: ``prod_i width(I_i)`` alternatives each).
    """
    expanded_profiles: list[Profile] = []
    pending_map: list[list[TKey]] = []  # per profile: owner of each new eta
    total = 0
    for profile in profiles:
        new_tintervals: list[TInterval] = []
        owners: list[TKey] = []
        for eta in profile:
            count = 1
            for ei in eta:
                count *= ei.width
                if count > max_alternatives:
                    raise SolverCapacityError(
                        f"expansion of t-interval "
                        f"({eta.profile_id},{eta.tinterval_id}) exceeds "
                        f"{max_alternatives} alternatives"
                    )
            total += count
            if total > max_alternatives:
                raise SolverCapacityError(
                    f"expansion exceeds {max_alternatives} total "
                    f"alternatives"
                )
            windows = [ei.chronons() for ei in eta]
            resources = [ei.resource_id for ei in eta]
            for tuple_choice in product(*windows):
                new_tintervals.append(TInterval([
                    ExecutionInterval(resource, chronon, chronon)
                    for resource, chronon in zip(resources, tuple_choice)
                ], need=eta.need))
                owners.append((eta.profile_id, eta.tinterval_id))
        expanded_profiles.append(Profile(new_tintervals,
                                         name=f"{profile.name}[1]"))
        pending_map.append(owners)

    expanded = ProfileSet(expanded_profiles)
    alternative_of: dict[TKey, TKey] = {}
    for profile, owners in zip(expanded, pending_map):
        for eta, owner in zip(profile, owners):
            alternative_of[(eta.profile_id, eta.tinterval_id)] = owner
    return UnitWidthExpansion(original=profiles, expanded=expanded,
                              alternative_of=alternative_of)
