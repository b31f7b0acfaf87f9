"""The instance generator one event at a time: the specification.

``src`` generates an instance through one batched path — the Poisson
gaps as one ``standard_exponential`` buffer, the auction price noise as
one ``normal`` fill per auction, every profile's rank and resources from
one buffered uniform stream grouped into EI columns at once. This module
draws the same variates the plain way, one scalar call at a time, and
builds each profile as objects:

* :func:`poisson_trace` — per resource, ``exponential(mean_gap)`` until
  the horizon is crossed, each arrival ceiled to its chronon;
* :func:`auction_trace` — per auction, the bid count, the steady and
  sniping offsets, then one scalar ``normal`` per bid on the price
  ladder;
* :func:`profiles` — per profile, ``rng.random()`` through
  ``bisect_right`` on the Zipf(beta) CDF for its rank,
  ``rng.choice(size, rank, replace=False, p=pmf)`` for its resources,
  then ``AuctionWatchTemplate.build_profile``;
* :func:`instance` — ``generate_instance``'s seeding around them.

Equivalence tests compare ``src`` against these: identical traces,
identical EI columns, and the generator left at the same stream
position.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from repro.core.profile import ProfileSet
from repro.core.timeline import Epoch
from repro.experiments.config import ExperimentConfig
from repro.traces.auctions import AuctionTraceSynthesizer
from repro.traces.events import UpdateEvent, UpdateTrace
from repro.workloads.generator import GeneratorConfig
from repro.workloads.templates import AuctionWatchTemplate


def zipf_pmf(theta: float, size: int) -> np.ndarray:
    """``P(i) ∝ 1 / i^theta`` over ``i in {1..size}``, index ``i - 1``."""
    weights = np.arange(1, size + 1, dtype=float) ** (-theta)
    return weights / weights.sum()


def zipf_sample(rng: np.random.Generator, pmf: np.ndarray) -> int:
    """One 1-based Zipf value from one ``rng.random()``: the inverse
    CDF, whose last entry is 1.0 however the cumulative sum rounds."""
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return bisect_right(cdf.tolist(), rng.random()) + 1


def poisson_trace(rng: np.random.Generator,
                  intensity_for: Callable[[int], float],
                  resource_ids: Sequence[int], epoch: Epoch) -> UpdateTrace:
    """Poisson(lambda) updates, one resource and one gap at a time."""
    events: list[UpdateEvent] = []
    horizon = float(epoch.length)
    for resource_id in resource_ids:
        intensity = intensity_for(resource_id)
        if intensity <= 0:
            continue
        mean_gap = horizon / intensity
        time = 0.0
        chronons: set[int] = set()
        # An arrival in (j-1, j] lands on chronon j.
        while True:
            time += rng.exponential(mean_gap)
            if time > horizon:
                break
            chronons.add(max(1, int(np.ceil(time))))
        events.extend(UpdateEvent(chronon, resource_id)
                      for chronon in sorted(chronons))
    return UpdateTrace(events, epoch)


def auction_trace(synthesizer: AuctionTraceSynthesizer) -> UpdateTrace:
    """The synthesizer's bid trace with one scalar draw per bid price.

    The auction population (``specs()``) has one spelling and is read
    from the synthesizer; the bids are drawn from its generator, so
    calling this in place of ``synthesizer.generate()`` leaves that
    generator where ``generate`` would.
    """
    rng = synthesizer._rng
    share = synthesizer._sniping_share
    events: list[UpdateEvent] = []
    for spec in synthesizer.specs():
        count = int(rng.poisson(spec.expected_bids))
        if count == 0 or spec.duration == 0:
            continue
        snipe_count = int(round(count * share))
        steady_count = count - snipe_count
        snipe_start = spec.closes - max(1, spec.duration // 10) + 1
        offsets: list[int] = []
        if steady_count and snipe_start > spec.opens:
            offsets.extend(int(c) for c in rng.integers(
                spec.opens, snipe_start, size=steady_count))
        else:
            snipe_count += steady_count
        offsets.extend(int(c) for c in rng.integers(
            snipe_start, spec.closes + 1, size=snipe_count))
        price = spec.starting_price
        for chronon in sorted(set(offsets)):
            price = float(np.round(
                price * (1.0 + abs(rng.normal(0.02, 0.02))), 2))
            events.append(UpdateEvent(chronon, spec.resource_id,
                                      payload=f"bid={price:.2f}"))
    return UpdateTrace(events, synthesizer._epoch)


def profiles(config: GeneratorConfig, trace: UpdateTrace, epoch: Epoch,
             resource_ids: Sequence[int]) -> ProfileSet:
    """The three-stage generator, one profile and one draw at a time."""
    rng = np.random.default_rng(config.seed)
    rank_pmf = zipf_pmf(config.beta, config.max_rank)
    resource_pmf = zipf_pmf(config.alpha, len(resource_ids))
    template = AuctionWatchTemplate(config.restriction(),
                                    grouping=config.grouping)
    built = []
    for index in range(config.num_profiles):
        rank = min(zipf_sample(rng, rank_pmf), len(resource_ids))
        chosen = rng.choice(len(resource_ids), size=rank, replace=False,
                            p=resource_pmf)
        built.append(template.build_profile(
            [resource_ids[position] for position in chosen], trace, epoch,
            name=f"AuctionWatch({rank})#{index}"))
    return ProfileSet(built)


def instance(config: ExperimentConfig, repetition: int,
             source: str = "poisson") -> tuple[UpdateTrace, ProfileSet]:
    """``generate_instance(config, repetition, source)``, as objects."""
    seed = config.seed + 1013 * repetition
    epoch = config.epoch
    resource_ids = list(range(config.num_resources))
    if source == "poisson":
        trace = poisson_trace(np.random.default_rng(seed),
                              lambda _rid: config.intensity,
                              resource_ids, epoch)
    else:
        trace = auction_trace(AuctionTraceSynthesizer(
            config.num_resources, epoch,
            mean_bids=max(1.0, config.intensity), seed=seed))
    return trace, profiles(GeneratorConfig(
        num_profiles=config.num_profiles, max_rank=config.max_rank,
        alpha=config.alpha, beta=config.beta, window=config.window,
        grouping=config.grouping, seed=seed + 1),
        trace, epoch, resource_ids)
