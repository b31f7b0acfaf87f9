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
    BudgetVector,
    CircuitBreaker,
    Epoch,
    FaultSpec,
    FeedTraceSynthesizer,
    MonitoringProxy,
    OriginServer,
    Outage,
    RetryConfig,
    UnreliableServer,
    compile_text,
)
from repro.online import MEDFPolicy

EPOCH = Epoch(400)

WIRE_SPEC = """
# The newsroom profiles of examples/proxy_server.py — but the wire
# service is having a bad day.
profile wires {
    subscribe feed/hourly-0, feed/hourly-1 until overwrite;
}
profile markets {
    watch 6, 7 overlap within 12;
}
"""

CONTENDED_SPEC = """
# Three overwrite subscriptions plus a 2-of-3 digest on a budget of one
# probe per chronon: every probe wasted on a dead feed is a capture
# lost elsewhere.
profile wires {
    subscribe feed/hourly-0, feed/hourly-1, feed/hourly-2 until overwrite;
}
profile digest {
    watch 3, 4, 5 indexed within 15 quota 2;
}
"""


def run(spec_text, feeds, chronons_per_hour, budget, faults=None,
        retry=None, breaker=None):
    synthesizer = FeedTraceSynthesizer(feeds, EPOCH,
                                       chronons_per_hour=chronons_per_hour,
                                       seed=21)
    trace = synthesizer.generate()
    server = OriginServer(trace)
    if faults is not None:
        server = UnreliableServer(server, faults)
    compiled = compile_text(spec_text, trace, EPOCH,
                            catalog=synthesizer.catalog())
    proxy = MonitoringProxy(server, EPOCH, BudgetVector(budget),
                            MEDFPolicy(), retry=retry, breaker=breaker)
    client = proxy.register_client("newsroom")
    for profile in compiled.profiles:
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
    wires = dict(spec_text=WIRE_SPEC, feeds=12, chronons_per_hour=12,
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
    contended = dict(spec_text=CONTENDED_SPEC, feeds=6,
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
