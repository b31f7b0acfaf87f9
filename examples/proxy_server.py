#!/usr/bin/env python3
"""The full system: template-built profiles on a live proxy runtime.

This example wires every layer together the way the paper's architecture
diagram describes it: an *origin server* holds volatile feed data, clients
register profiles built from the paper's templates, and the
*monitoring proxy* pulls from the server under a probing budget and pushes
notifications (with the captured payloads) to each client — including a
client that joins while the proxy is already running.

Run: ``python examples/proxy_server.py``
"""

from repro import (
    AuctionWatchTemplate,
    BudgetVector,
    Epoch,
    FeedTraceSynthesizer,
    MonitoringProxy,
    OriginServer,
    OverwriteRestriction,
    Profile,
    SingleResourceTemplate,
    TInterval,
    WindowRestriction,
)
from repro.online import MEDFPolicy


def newsroom_profiles(trace, epoch, catalog):
    """Every item from two wire feeds, before overwrite, plus a market
    pair that must be observed with overlapping freshness."""
    wires = [catalog.by_name(f"feed/hourly-{i}").resource_id
             for i in (0, 1)]
    return [
        SingleResourceTemplate(OverwriteRestriction()).build_profile(
            wires, trace, epoch, name="wires"),
        AuctionWatchTemplate(WindowRestriction(12), grouping="overlap")
        .build_profile([6, 7], trace, epoch, name="markets"),
    ]


def digest_profile(trace, epoch):
    """A 2-of-3 digest: each round over three feeds is delivered once two
    of its EIs are captured (a round with fewer EIs needs all of them)."""
    rounds = AuctionWatchTemplate(WindowRestriction(15)).build_profile(
        [2, 3, 4], trace, epoch)
    return Profile([TInterval(eta.eis, need=min(2, eta.size))
                    for eta in rounds], name="late-digest")


def main() -> None:
    epoch = Epoch(400)
    synthesizer = FeedTraceSynthesizer(12, epoch, chronons_per_hour=12,
                                       seed=21)
    trace = synthesizer.generate()
    catalog = synthesizer.catalog()
    print(f"origin server: 12 feeds, {len(trace)} updates queued\n")

    server = OriginServer(trace)
    proxy = MonitoringProxy(server, epoch, BudgetVector(1), MEDFPolicy())

    # --- client 1: registered up front ---------------------------------
    profiles = newsroom_profiles(trace, epoch, catalog)
    newsroom = proxy.register_client("newsroom")
    for profile in profiles:
        proxy.register_profile(newsroom, profile)
    print(f"newsroom registered: "
          f"{sum(len(p) for p in profiles)} t-intervals from "
          f"{len(profiles)} profiles")

    # --- run half the epoch, then a client joins live -------------------
    proxy.run(until=200)
    mid_stats = proxy.stats()
    print(f"\nat chronon 200: {mid_stats.completed} notifications "
          f"delivered, {mid_stats.expired} expired, "
          f"{mid_stats.pending} pending")

    customer = proxy.register_client("late-customer")
    proxy.register_profile(customer, digest_profile(trace, epoch))
    print("late-customer joined at chronon 200")

    stats = proxy.run()
    print(f"\nfinal: {stats.completed} completed, {stats.expired} "
          f"expired, {stats.probes_used} probes "
          f"(completeness {stats.completeness:.2f})")

    print("\nsample notifications (newsroom):")
    for notification in newsroom.mailbox[:5]:
        values = ", ".join(notification.values())
        print(f"  [{notification.completed_at:>3}] "
              f"{notification.profile_name}: {values}")

    print(f"\nlate-customer received {len(customer.mailbox)} "
          f"notifications after joining mid-run")
    assert all(n.client_id == customer.client_id
               for n in customer.mailbox)
    # The digest watches three feeds and needs two: each round is
    # delivered on its second capture (one probe per chronon).
    assert customer.mailbox
    assert all(len(n.snapshots) == 2 for n in customer.mailbox)


if __name__ == "__main__":
    main()
