"""Synthetic eBay-like auction bid traces.

The paper's real-world experiment uses a three-month trace of eBay auctions
for Intel/IBM/Dell laptops, extracted from eBay Web feeds. That trace is
proprietary, so this module synthesizes the closest statistical equivalent
(documented in DESIGN.md §4):

* each resource is one **auction** with a bounded lifetime inside the epoch
  (auctions open and close at different times — activity windows overlap
  but do not coincide);
* bids arrive as a **non-homogeneous Poisson process** whose intensity
  rises toward the auction close ("sniping" — the well-documented burst of
  last-minute bids in eBay auctions);
* auctions belong to **brand categories** with different popularity, giving
  heterogeneous per-resource intensities;
* bid amounts follow an increasing price ladder so payloads look like real
  bid feeds.

The schedulers only consume ``(resource, chronon)`` pairs, so these are the
properties that matter: bursty, heterogeneous, temporally overlapping
update streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.resource import Resource, ResourceCatalog
from repro.core.timeline import Epoch
from repro.traces.events import UpdateEvent, UpdateTrace

__all__ = ["AuctionSpec", "AuctionTraceSynthesizer", "BRAND_CATALOG"]

# Brand categories mimic the paper's Intel/IBM/Dell laptop segments:
# (name, relative popularity weight, mean bids per auction multiplier).
BRAND_CATALOG: tuple[tuple[str, float, float], ...] = (
    ("intel", 0.45, 1.3),
    ("ibm", 0.35, 1.0),
    ("dell", 0.20, 0.8),
)


@dataclass(frozen=True, slots=True)
class AuctionSpec:
    """Static description of one synthetic auction."""

    resource_id: int
    brand: str
    opens: int
    closes: int
    expected_bids: float
    starting_price: float

    @property
    def duration(self) -> int:
        """Lifetime of the auction in chronons."""
        return self.closes - self.opens + 1


class AuctionTraceSynthesizer:
    """Generates overlapping auction lifecycles with sniping bid bursts.

    Parameters
    ----------
    num_auctions:
        Number of auction resources to synthesize.
    epoch:
        The epoch the auctions live in.
    mean_bids:
        Baseline expected number of bids per auction (scaled by brand).
    mean_duration_fraction:
        Mean auction lifetime as a fraction of the epoch (default 0.4;
        auctions are clipped to the epoch).
    sniping_share:
        Fraction of a resource's bids concentrated in the last 10% of its
        lifetime (default 0.35, i.e. a pronounced but not degenerate burst).
    seed:
        RNG seed for reproducibility.
    """

    def __init__(self, num_auctions: int, epoch: Epoch,
                 mean_bids: float = 20.0,
                 mean_duration_fraction: float = 0.4,
                 sniping_share: float = 0.35,
                 seed: int | None = None) -> None:
        if num_auctions < 0:
            raise ValueError(f"num_auctions must be >= 0, got {num_auctions}")
        if mean_bids < 0:
            raise ValueError(f"mean_bids must be >= 0, got {mean_bids}")
        if not 0 < mean_duration_fraction <= 1:
            raise ValueError(
                "mean_duration_fraction must be in (0, 1], got "
                f"{mean_duration_fraction}"
            )
        if not 0 <= sniping_share < 1:
            raise ValueError(
                f"sniping_share must be in [0, 1), got {sniping_share}"
            )
        self._num_auctions = num_auctions
        self._epoch = epoch
        self._mean_bids = mean_bids
        self._mean_duration_fraction = mean_duration_fraction
        self._sniping_share = sniping_share
        self._rng = np.random.default_rng(seed)
        self._specs: tuple[AuctionSpec, ...] | None = None

    # ------------------------------------------------------------------
    # Auction population
    # ------------------------------------------------------------------

    def specs(self) -> tuple[AuctionSpec, ...]:
        """The synthesized auction population (memoized)."""
        if self._specs is None:
            self._specs = tuple(self._make_spec(i)
                                for i in range(self._num_auctions))
        return self._specs

    def _make_spec(self, resource_id: int) -> AuctionSpec:
        brands = [name for name, _weight, _rate in BRAND_CATALOG]
        weights = np.array([weight for _name, weight, _rate in BRAND_CATALOG])
        rates = {name: rate for name, _weight, rate in BRAND_CATALOG}
        brand = str(self._rng.choice(brands, p=weights / weights.sum()))
        horizon = self._epoch.length
        mean_duration = max(2.0, self._mean_duration_fraction * horizon)
        duration = int(np.clip(self._rng.normal(mean_duration,
                                                mean_duration / 4),
                               2, horizon))
        opens = int(self._rng.integers(1, max(2, horizon - duration + 2)))
        closes = min(horizon, opens + duration - 1)
        expected_bids = max(1.0,
                            self._rng.gamma(4.0, self._mean_bids / 4.0)
                            * rates[brand])
        starting_price = float(np.round(self._rng.uniform(50, 800), 2))
        return AuctionSpec(resource_id=resource_id, brand=brand, opens=opens,
                           closes=closes, expected_bids=expected_bids,
                           starting_price=starting_price)

    def catalog(self) -> ResourceCatalog:
        """A resource catalog describing the auctions (brand metadata)."""
        catalog = ResourceCatalog()
        for spec in self.specs():
            catalog.add(Resource.create(
                spec.resource_id,
                name=f"ebay/{spec.brand}-auction-{spec.resource_id}",
                metadata={"brand": spec.brand,
                          "opens": str(spec.opens),
                          "closes": str(spec.closes)},
            ))
        return catalog

    # ------------------------------------------------------------------
    # Bid stream
    # ------------------------------------------------------------------

    def generate(self) -> UpdateTrace:
        """Synthesize the full bid trace for all auctions."""
        events: list[UpdateEvent] = []
        for spec in self.specs():
            events.extend(self._bids_for(spec))
        return UpdateTrace(events, self._epoch)

    def _bids_for(self, spec: AuctionSpec) -> list[UpdateEvent]:
        count = int(self._rng.poisson(spec.expected_bids))
        if count == 0 or spec.duration == 0:
            return []
        # Split bids between the steady phase and the sniping burst in the
        # final 10% of the auction lifetime.
        snipe_count = int(round(count * self._sniping_share))
        steady_count = count - snipe_count
        snipe_start = spec.closes - max(1, spec.duration // 10) + 1
        offsets: list[int] = []
        if steady_count and snipe_start > spec.opens:
            offsets.extend(
                int(c) for c in self._rng.integers(
                    spec.opens, snipe_start, size=steady_count)
            )
        else:
            snipe_count += steady_count
        offsets.extend(
            int(c) for c in self._rng.integers(
                snipe_start, spec.closes + 1, size=snipe_count)
        )
        chronons = sorted(set(offsets))
        # The ladder's noise is one array fill per auction, which
        # consumes the stream exactly as one scalar ``normal`` per bid
        # (``tests/workloads/oracle.py``); the ladder itself stays
        # sequential because each price compounds on the previous one.
        noise = self._rng.normal(0.02, 0.02, size=len(chronons))
        price = spec.starting_price
        events = []
        for chronon, step in zip(chronons, noise.tolist()):
            price = float(np.round(price * (1.0 + abs(step)), 2))
            events.append(UpdateEvent(chronon, spec.resource_id,
                                      payload=f"bid={price:.2f}"))
        return events
