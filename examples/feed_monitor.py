#!/usr/bin/env python3
"""Web-feed monitoring with partial capture (a §6 extension).

A Google-Reader-style aggregator subscribes to a population of feeds with
the *overwrite* restriction (items must be pulled before the server
overwrites them — 80% of feeds keep <10KB online per the study the paper
cites). One of the paper's future-work extensions is exercised:
**partial capture** — a digest profile is satisfied by seeing any 2 of
3 related feeds' updates (each of its t-intervals has ``need=2``).

Run: ``python examples/feed_monitor.py``
"""

from repro import (
    BudgetVector,
    Epoch,
    FeedTraceSynthesizer,
    make_policy,
    run_online,
)
from repro.core import Profile, ProfileSet, TInterval
from repro.workloads import (
    AuctionWatchTemplate,
    OverwriteRestriction,
    SingleResourceTemplate,
)


def main() -> None:
    epoch = Epoch(400)
    synthesizer = FeedTraceSynthesizer(
        num_feeds=40, epoch=epoch, chronons_per_hour=8, seed=3)
    trace = synthesizer.generate()
    print(f"feeds: 40, items: {len(trace)} over {epoch.length} chronons\n")

    # Simple subscriptions: every item of feeds 0..24, before overwrite —
    # far more demand than one probe per chronon can serve.
    subscriptions = SingleResourceTemplate(OverwriteRestriction())
    simple = subscriptions.build_profile(list(range(25)), trace, epoch,
                                         name="inbox")

    # A digest over three related feeds: each "round" needs 2 of the 3.
    digest_template = AuctionWatchTemplate(OverwriteRestriction())
    digest = digest_template.build_profile([10, 11, 12], trace, epoch,
                                           name="digest-2of3")

    profiles = ProfileSet([simple, digest])
    # NOTE: the profile set re-attaches profiles with fresh ids — always
    # reference t-intervals through the set, not the inputs.
    inbox, digest = profiles[0], profiles[1]
    budget = BudgetVector(1)
    policy = make_policy("MRSF")

    # --- plain run -----------------------------------------------------
    plain = run_online(profiles, epoch, budget, policy)
    print(f"plain:     {plain.summary()}")

    # --- quota run: the digest needs any 2 of its 3 feeds ---------------
    two_of_three = Profile([TInterval(eta.eis, need=2) for eta in digest],
                           name=digest.name)
    quota_run = run_online(ProfileSet([inbox, two_of_three]), epoch,
                           budget, policy)
    print(f"quota:     {quota_run.summary()}")

    # Quotas make the digest cheaper to satisfy, so overall completeness
    # should not drop relative to the all-required run.
    assert quota_run.gc >= plain.gc - 1e-9, (
        "quota semantics should never lower completeness")


if __name__ == "__main__":
    main()
