#!/usr/bin/env python3
"""The full system: DSL-specified profiles on a live proxy runtime.

This example wires every layer together the way the paper's architecture
diagram describes it: an *origin server* holds volatile feed data, clients
register profiles written in the specification language, and the
*monitoring proxy* pulls from the server under a probing budget and pushes
notifications (with the captured payloads) to each client — including a
client that joins while the proxy is already running.

Run: ``python examples/proxy_server.py``
"""

from repro import (
    BudgetVector,
    Epoch,
    FeedTraceSynthesizer,
    MonitoringProxy,
    OriginServer,
    compile_text,
)
from repro.online import MEDFPolicy

SPEC = """
# Newsroom monitoring: every item from two wire feeds, before overwrite,
# plus a market pair that must be observed with overlapping freshness.
profile wires {
    subscribe feed/hourly-0, feed/hourly-1 until overwrite;
}
profile markets {
    watch 6, 7 overlap within 12;
}
"""

LATE_SPEC = """
# A customer who shows up at mid-epoch with a 2-of-3 digest.
profile late-digest {
    watch 2, 3, 4 indexed within 15 quota 2;
}
"""


def main() -> None:
    epoch = Epoch(400)
    synthesizer = FeedTraceSynthesizer(12, epoch, chronons_per_hour=12,
                                       seed=21)
    trace = synthesizer.generate()
    catalog = synthesizer.catalog()
    print(f"origin server: 12 feeds, {len(trace)} updates queued\n")

    server = OriginServer(trace)
    proxy = MonitoringProxy(server, epoch, BudgetVector(1), MEDFPolicy())

    # --- client 1: registered up front through the DSL -----------------
    compiled = compile_text(SPEC, trace, epoch, catalog=catalog)
    newsroom = proxy.register_client("newsroom")
    for profile in compiled.profiles:
        proxy.register_profile(newsroom, profile)
    print(f"newsroom registered: "
          f"{compiled.profiles.total_tintervals} t-intervals from "
          f"{len(compiled.profiles)} profiles")

    # --- run half the epoch, then a client joins live -------------------
    proxy.run(until=200)
    mid_stats = proxy.stats()
    print(f"\nat chronon 200: {mid_stats.completed} notifications "
          f"delivered, {mid_stats.expired} expired, "
          f"{mid_stats.pending} pending")

    late = compile_text(LATE_SPEC, trace, epoch, catalog=catalog)
    customer = proxy.register_client("late-customer")
    for profile in late.profiles:
        proxy.register_profile(customer, profile)
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
