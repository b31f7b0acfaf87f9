"""The benchmark's one size table (stdlib only; parent and children read it).

``paper`` holds the sizes of ISSUE 11. The smaller scales shrink the
epoch first — per-chronon behaviour (updates per resource per chronon,
clients joining per chronon, requests per tick) stays what it is at the
paper scale, and a run simply sees fewer chronons — and the populations
only as far as the time cap then still demands. Everything that is not
a size (rank, window, budget, policies, fault rates, shard count, tick
interval, request mix) is the same at every scale and lives with the
workload that uses it.

* ``paper``: 8-20 s per repetition. Too long for the acceptance driver's
  time cap; run it by hand.
* ``contract``: what ``BENCHMARK.json``'s command measures — about a
  second per repetition, so that a 20 s run holds ten or more.
* ``smoke``: tiny; the whole benchmark in under 30 s, for the self-tests.
"""

from __future__ import annotations

__all__ = ["SCALES", "DEFAULT_SEED", "TICK_INTERVAL_S", "WORKLOADS",
           "repetition_seed"]

DEFAULT_SEED = 20080407

WORKLOADS = ("figures", "catalog", "live-churn", "service")


def repetition_seed(seed: int, index: int) -> int:
    """The input seed of repetition ``index`` of a run made with ``seed``.

    Repetition 0 uses ``seed`` itself (its result is what ``golden.json``
    pins for the default seed); later repetitions use seeds derived from
    it, disjoint between runs. A run therefore measures a dozen inputs,
    not one: how hard an instance is varies by some 10 % from seed to
    seed at the contract scale, and a run that saw a single instance
    would report that as if it were noise.
    """
    if index == 0:
        return seed
    return (seed * 1_000_003 + index) % (2 ** 31 - 1)


#: Real seconds between chronons of the ``service`` workload.
TICK_INTERVAL_S = 0.010

SCALES: dict[str, dict] = {
    "paper": {
        "figures": {"epoch_length": 1000, "num_resources": 400,
                    "num_profiles": 500, "intensity": 40.0},
        "catalog": {"num_profiles": 30_000},
        "live-churn": {"epoch_length": 1000, "num_resources": 400,
                       "intensity": 20.0, "num_clients": 1000},
        "service": {"epoch_length": 1500, "intensity": 8.0, "rate": 100.0},
    },
    "contract": {
        # Epoch x0.15, populations x0.6: 9.6 updates per chronon against
        # budgets 1-5 (paper: 16), so all five budgets still differ in
        # gained completeness (0.31 ... 0.87 for MRSF(P)).
        "figures": {"epoch_length": 150, "num_resources": 240,
                    "num_profiles": 300, "intensity": 6.0},
        # One lane over one instance: by ISSUE 11 the catalog shrinks by
        # profile count alone (resources, epoch, budget untouched).
        "catalog": {"num_profiles": 5_000},
        # Every axis x0.3: one client joins per chronon as at the paper
        # scale, GC stays near 0.42 under budget 2.
        "live-churn": {"epoch_length": 300, "num_resources": 120,
                       "intensity": 6.0, "num_clients": 300},
        # A 3 s serving window at the paper scale's rate and tick.
        "service": {"epoch_length": 300, "intensity": 1.6, "rate": 100.0},
    },
    "smoke": {
        "figures": {"epoch_length": 80, "num_resources": 32,
                    "num_profiles": 40, "intensity": 3.2},
        "catalog": {"num_profiles": 600},
        "live-churn": {"epoch_length": 80, "num_resources": 32,
                       "intensity": 1.6, "num_clients": 80},
        "service": {"epoch_length": 100, "intensity": 0.64, "rate": 100.0},
    },
}
