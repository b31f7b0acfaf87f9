#!/usr/bin/env python3
"""A four-shard proxy federation under a budget sweep.

One monitoring proxy scores every candidate pool every chronon; the
federation splits the resource catalog over shards via a
consistent-hash ring and lets a coordinator merge per-shard proposals
into the *same* global selection the monolith would make — probe for
probe, at any shard count (docs/ALGORITHMS.md §15). This example runs
a 4-shard fleet over one synthetic instance at several per-chronon
budgets and prints what the monolith cannot show you: where the
catalog lives (per-shard load), where the budget actually flowed
(routed probes), and how much of it had to be stolen across shards to
follow urgency rather than the nominal even split.

Everything is seeded; reruns print the same numbers.

Run: ``python examples/federated_sweep.py``
"""

from repro.core import BudgetVector
from repro.online.registry import parse_policy_spec
from repro.simulation import federated_run, run_online
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import make_instance

SHARDS = 4
BUDGETS = (1, 2, 4, 8)
POLICY = "M-EDF(P)"

CONFIG = ExperimentConfig(
    epoch_length=120, num_resources=24, num_profiles=80,
    intensity=10.0, budget=max(BUDGETS), window=8, repetitions=1,
    grouping="overlap", seed=4242)


def sweep_row(profiles, budget):
    policy, preemptive = parse_policy_spec(POLICY)
    monolith = run_online(profiles, CONFIG.epoch, BudgetVector(budget),
                          policy, preemptive=preemptive)
    policy, preemptive = parse_policy_spec(POLICY)
    federated = federated_run(profiles, CONFIG.epoch,
                              BudgetVector(budget), policy,
                              preemptive=preemptive, shards=SHARDS)
    identical = (list(federated.result.schedule.probes())
                 == list(monolith.schedule.probes()))
    return monolith, federated, identical


def main() -> None:
    _trace, profiles = make_instance(CONFIG, 0)
    print(f"{SHARDS}-shard federation vs. monolith — {POLICY}, "
          f"{CONFIG.num_profiles} profiles over "
          f"{CONFIG.num_resources} resources\n")
    print(f"{'budget':>6} {'monolith GC':>12} {'federated GC':>13} "
          f"{'identical':>9} {'stolen':>6} {'transfers':>9}")
    rows = []
    for budget in BUDGETS:
        monolith, federated, identical = sweep_row(profiles, budget)
        rows.append((budget, federated))
        print(f"{budget:>6} {monolith.gc:>12.4f} "
              f"{federated.gc:>13.4f} {str(identical):>9} "
              f"{federated.stolen_budget:>6} "
              f"{federated.steal_transfers:>9}")
        assert identical, "federated schedule diverged from the monolith"
    print("\nper-shard load at the tightest and loosest budgets:")
    for budget, federated in (rows[0], rows[-1]):
        print(f"  budget {budget}:")
        for load in federated.loads:
            print(f"    shard {load.shard}: {load.resources:>3} "
                  f"resources, {load.probes_routed:>4} probes routed, "
                  f"nominal {load.nominal_budget:>4}, "
                  f"stolen in {load.stolen_in:>3} / "
                  f"out {load.stolen_out:>3}")
        total = sum(load.probes_routed for load in federated.loads)
        assert total == federated.result.probes_used
    print("\nthe ranking routes probes to whichever shard holds the "
          "most urgent pools;\nthe ledger's stolen column is the gap "
          "between that and the even nominal split.")


if __name__ == "__main__":
    main()
