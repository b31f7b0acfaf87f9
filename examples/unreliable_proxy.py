#!/usr/bin/env python3
"""Monitoring against an unreliable origin server.

The paper's evaluation assumes every probe succeeds. This example wires
the fault-injection layer into the live runtime, in two vignettes:

1. **Random drops vs. retries** — the server drops half of all
   requests; an in-chronon retry allowance (spending leftover budget)
   recovers the lost notifications.
2. **Dead feed vs. circuit breaker** — one feed is offline for the
   whole epoch and the budget is contested; the breaker quarantines the
   dead feed so its budget flows to feeds that can still be captured.

Every fault is deterministic (seeded), so reruns print the same numbers.

Run: ``python examples/unreliable_proxy.py``
"""

from repro import (
    AuctionWatchTemplate,
    BudgetVector,
    CircuitBreaker,
    Epoch,
    FaultSpec,
    FeedTraceSynthesizer,
    MonitoringProxy,
    OriginServer,
    Outage,
    OverwriteRestriction,
    Profile,
    RetryConfig,
    SingleResourceTemplate,
    TInterval,
    UnreliableServer,
    WindowRestriction,
)
from repro.online import MEDFPolicy

EPOCH = Epoch(400)


def subscribe(names, trace, catalog):
    """One rank-1 t-interval per update of each named feed, deliverable
    until the next update overwrites it."""
    resources = [catalog.by_name(name).resource_id for name in names]
    return SingleResourceTemplate(OverwriteRestriction()).build_profile(
        resources, trace, EPOCH, name="wires")


def wire_profiles(trace, catalog):
    """The newsroom profiles of examples/proxy_server.py — but the wire
    service is having a bad day."""
    markets = AuctionWatchTemplate(WindowRestriction(12),
                                   grouping="overlap")
    return [subscribe(["feed/hourly-0", "feed/hourly-1"], trace, catalog),
            markets.build_profile([6, 7], trace, EPOCH, name="markets")]


def contended_profiles(trace, catalog):
    """Three overwrite subscriptions plus a 2-of-3 digest on a budget of
    one probe per chronon: every probe wasted on a dead feed is a capture
    lost elsewhere."""
    rounds = AuctionWatchTemplate(WindowRestriction(15)).build_profile(
        [3, 4, 5], trace, EPOCH)
    digest = Profile([TInterval(eta.eis, need=min(2, eta.size))
                      for eta in rounds], name="digest")
    wires = ["feed/hourly-0", "feed/hourly-1", "feed/hourly-2"]
    return [subscribe(wires, trace, catalog), digest]


def run(profiles, feeds, chronons_per_hour, budget, faults=None,
        retry=None, breaker=None):
    synthesizer = FeedTraceSynthesizer(feeds, EPOCH,
                                       chronons_per_hour=chronons_per_hour,
                                       seed=21)
    trace = synthesizer.generate()
    server = OriginServer(trace)
    if faults is not None:
        server = UnreliableServer(server, faults)
    proxy = MonitoringProxy(server, EPOCH, BudgetVector(budget),
                            MEDFPolicy(), retry=retry, breaker=breaker)
    client = proxy.register_client("newsroom")
    for profile in profiles(trace, synthesizer.catalog()):
        proxy.register_profile(client, profile)
    return proxy.run()


def report(label, stats):
    print(f"  {label:22} {stats.completed:>3} completed, "
          f"{stats.expired} expired, {stats.probes_failed} failed "
          f"requests, {stats.retries} retries, "
          f"{stats.resources_quarantined} quarantined "
          f"(completeness {stats.completeness:.2f})")
    assert stats.registered == (stats.completed + stats.expired
                                + stats.dropped)


def vignette_drops_vs_retries() -> None:
    print("1. random drops vs. in-chronon retries "
          "(drop rate 0.5, budget 2)")
    wires = dict(profiles=wire_profiles, feeds=12, chronons_per_hour=12,
                 budget=2)
    drops = FaultSpec(failure_probability=0.5, seed=7)
    report("reliable server:", run(**wires))
    report("drops, no retries:", run(**wires, faults=drops))
    report("drops + retries:", run(**wires, faults=drops,
                                   retry=RetryConfig(max_retries=1)))
    print()


def vignette_outage_vs_breaker() -> None:
    print("2. dead feed vs. circuit breaker "
          "(feed 0 down all epoch, budget 1)")
    contended = dict(profiles=contended_profiles, feeds=6,
                     chronons_per_hour=6, budget=1)
    outage = FaultSpec(outages=(Outage(0, 0, None),), seed=7)
    breaker = CircuitBreaker(failure_threshold=3, cooldown=8,
                             backoff_factor=2.0)
    report("reliable server:", run(**contended))
    report("outage, no breaker:", run(**contended, faults=outage))
    report("outage + breaker:", run(**contended, faults=outage,
                                    breaker=breaker))
    print()


def main() -> None:
    vignette_drops_vs_retries()
    vignette_outage_vs_breaker()
    print("retries recover what random drops cost; the breaker stops a "
          "dead feed\nfrom bleeding the budget the other feeds need.")


if __name__ == "__main__":
    main()
