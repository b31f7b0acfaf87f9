"""The paper's three-stage synthetic profile generator (Section 5.1).

Given ``rank(P) = k`` and ``n`` resources, each of ``m`` profiles is built
in three stages:

1. **Rank selection** — the profile's rank is drawn from ``Zipf(beta, k)``
   (*intra-user* preference: positive ``beta`` favors simpler profiles;
   ``beta = 0`` is uniform on ``{1..k}``).
2. **Resource selection** — the profile's resources are drawn (distinct)
   from ``Zipf(alpha, n)`` (*inter-user* preference: positive ``alpha``
   concentrates on popular resources; the paper cites ``alpha = 1.37`` for
   Web feeds).
3. **t-interval generation** — the AuctionWatch template instantiates
   t-intervals from the update trace under a delivery restriction
   (overwrite or window(W)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.traces.events import UpdateTrace
from repro.workloads.restrictions import (
    DeliveryRestriction,
    OverwriteRestriction,
    WindowRestriction,
)
from repro.workloads.templates import AuctionWatchTemplate
from repro.workloads.zipf import BoundedZipf

__all__ = ["GeneratorConfig", "ProfileGenerator", "draw_profiles"]


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Knobs of the three-stage generator (Table 1's controlled parameters).

    Attributes
    ----------
    num_profiles:
        ``m`` — number of profiles to generate.
    max_rank:
        ``k = rank(P)`` — the upper bound on per-profile rank.
    alpha:
        Inter-user (resource popularity) Zipf exponent.
    beta:
        Intra-user (profile complexity) Zipf exponent.
    window:
        Window size ``W`` for the window restriction; ``None`` selects the
        overwrite restriction instead.
    grouping:
        t-interval grouping strategy for the AuctionWatch template.
    seed:
        RNG seed; generation is fully deterministic given the seed.
    """

    num_profiles: int
    max_rank: int
    alpha: float = 0.0
    beta: float = 0.0
    window: int | None = 20
    grouping: str = "indexed"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_profiles < 0:
            raise WorkloadError(
                f"num_profiles must be >= 0, got {self.num_profiles}"
            )
        if self.max_rank < 1:
            raise WorkloadError(f"max_rank must be >= 1, got {self.max_rank}")
        if self.alpha < 0 or self.beta < 0:
            raise WorkloadError("alpha and beta must be >= 0")
        if self.window is not None and self.window < 0:
            raise WorkloadError(f"window must be >= 0, got {self.window}")

    def restriction(self) -> DeliveryRestriction:
        """The delivery restriction implied by the config."""
        if self.window is None:
            return OverwriteRestriction()
        return WindowRestriction(self.window)


class ProfileGenerator:
    """Generates a :class:`ProfileSet` from a trace and a config.

    Stages 1-2 are :func:`draw_profiles` over one seeded stream, stage 3
    one :meth:`AuctionWatchTemplate.build_columns` over every profile;
    the result is a column-born :class:`ProfileSet`.
    ``tests/workloads/oracle.py`` draws the same uniforms one profile at
    a time and builds each with :meth:`AuctionWatchTemplate.build_profile`
    — the specification this path equals for any seed.
    """

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        self._template = AuctionWatchTemplate(
            config.restriction(), grouping=config.grouping)  # type: ignore[arg-type]

    def generate(self, trace: UpdateTrace, epoch: Epoch,
                 resource_ids: Sequence[int] | None = None) -> ProfileSet:
        """Build the profile set against ``trace`` over ``epoch``.

        Parameters
        ----------
        trace:
            Update trace the t-intervals are derived from.
        epoch:
            Simulation epoch.
        resource_ids:
            Popularity-ordered resource universe; position ``i`` is the
            ``(i+1)``-th most popular resource for the ``Zipf(alpha)``
            draw. Defaults to the trace's resources sorted by descending
            update count (busier resources are "more popular"), which is
            how popular feeds behave in the cited study.
        """
        if resource_ids is None:
            resource_ids = sorted(
                trace.resource_ids,
                key=lambda rid: (-trace.count_for(rid), rid),
            )
        resource_ids = list(resource_ids)
        if not resource_ids:
            if self.config.num_profiles > 0:
                raise WorkloadError(
                    "cannot generate profiles with no resources")
            return ProfileSet()
        ranks, positions = draw_profiles(
            np.random.default_rng(self.config.seed),
            self.config.num_profiles,
            BoundedZipf(self.config.beta, self.config.max_rank),
            BoundedZipf(self.config.alpha, len(resource_ids)))
        return ProfileSet.from_columns(self._template.build_columns(
            ranks, np.asarray(resource_ids, dtype=np.int64)[positions],
            [f"AuctionWatch({rank})#{index}"
             for index, rank in enumerate(ranks.tolist())],
            trace, epoch))


def draw_profiles(rng: np.random.Generator, count: int,
                  rank_dist: BoundedZipf, resource_dist: BoundedZipf) \
        -> tuple[np.ndarray, np.ndarray]:
    """Stages 1-2 of ``count`` profiles from ``rng``'s uniforms, in the
    order one profile at a time draws them (its rank, then its distinct
    resources): ranks, and each profile's 0-based universe positions in
    turn. The Zipf tables are only read: many streams share
    them, and one ``build_columns`` over all their draws is stage 3.

    The stream is read as one block, inverted whole on both tables (a
    uniform is a rank or a resource depending on where the walk reaches
    it), that holds what every profile can read without a collision: a
    rank and at most that many resources each. A profile whose first
    round collides is :meth:`BoundedZipf.sample_distinct_from`'s exact
    replay, reading on from the same position; the block grows after it
    should the rest no longer fit. numpy array fills consume the stream
    exactly as scalar draws do, so this is ``tests/workloads/oracle.py``'s
    one-draw-at-a-time walk.
    """
    size = resource_dist.size
    # The most a profile reads without a collision: a rank, then at
    # most that many resources (a rank is clamped to the universe).
    most = 1 + min(rank_dist.size, size)
    block = rng.random(count * most)
    rank_of: list[int] = []
    pick_of: list[int] = []
    at = 0

    def invert() -> None:
        # The two inversions of the uniforms not yet inverted.
        fresh = block[len(rank_of):]
        rank_of.extend(np.minimum(
            np.searchsorted(rank_dist.cdf, fresh, "right") + 1,
            size).tolist())
        pick_of.extend(np.searchsorted(resource_dist.choice_cdf, fresh,
                                       "right").tolist())

    def take(n: int) -> np.ndarray:
        nonlocal block, at
        if at + n > block.size:
            block = np.concatenate((block, rng.random(at + n - block.size)))
        at += n
        return block[at - n:at]

    invert()
    ranks: list[int] = []
    positions: list[int] = []
    for index in range(count):
        rank = rank_of[at]
        picks = pick_of[at + 1:at + 1 + rank]
        at += 1
        ranks.append(rank)
        if len(set(picks)) == rank:
            at += rank
            positions.extend(picks)
            continue
        positions.extend(value - 1 for value in
                         resource_dist.sample_distinct_from(rank, take))
        short = at + (count - index - 1) * most - block.size
        if short > 0:
            block = np.concatenate((block, rng.random(short)))
        invert()
    return (np.asarray(ranks, dtype=np.int64),
            np.asarray(positions, dtype=np.int64))
