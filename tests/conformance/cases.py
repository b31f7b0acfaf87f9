"""The cases of the conformance matrix: one online run, as data.

A :class:`Case` names every axis an engine takes — an initial profile
set (some t-intervals needing fewer than all their EIs), a policy
label, a budget, a fault layer (kind × retry × breaker), a churn plan
and a shard count — and builds fresh stateful objects
(policy, injector, breaker) for each run. :func:`cases` draws them over
every axis at once; :data:`PINNED` holds generated instances that
contend where hypothesis' four-resource draws rarely do, and the
``HAND_*`` churn instance is the one the churn edge cases share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from hypothesis import strategies as st

from repro.core import BudgetVector, Epoch, Profile, ProfileSet, TInterval
from repro.experiments import ExperimentConfig, make_instance
from repro.experiments.churn import ChurnConfig, build_churn_workload
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    Outage,
    RetryConfig,
)
from repro.online import MRSFPolicy, Policy, ScoreKey, key_of
from repro.online.registry import available_policies, parse_policy_spec
from repro.simulation import ChurnEvent, ChurnPlan

from tests.properties.strategies import (
    breaker_params,
    budget_vectors,
    epoch,
    eta,
    fault_specs,
    plans,
    profile_sets,
    retry_configs,
)


class LatestDeadlineFirst(Policy):
    """A row no module defines: a new policy is one line."""

    name = "LDF"
    key = ScoreKey(finish=-1, chronon=1)


class QuietMRSF(MRSFPolicy):
    """Overrides nothing, so it keeps MRSF's row."""

    name = "quiet-MRSF"


class LoudMRSF(MRSFPolicy):
    """Overrides ``score``, so it has no row."""

    name = "loud-MRSF"

    def score(self, candidate, chronon):
        return super().score(candidate, chronon)


#: The test-only policies, by the name a label spells them with.
EXTRA = {"LDF": LatestDeadlineFirst, "QUIET-MRSF": QuietMRSF,
         "LOUD-MRSF": LoudMRSF}

#: Every registered policy's score row.
ROWS = {
    "S-EDF": ScoreKey(finish=1, chronon=-1),
    "FCFS": ScoreKey(start=1),
    "LFF": ScoreKey(finish=1, chronon=-1, const=1),
    "STATICRANK": ScoreKey(rank=1),
    "MRSF": ScoreKey(rank=1, captured=-1),
    "Q-MRSF": ScoreKey(need=1, captured=-1),
    "ANTI-MRSF": ScoreKey(rank=-1, captured=1),
    "COVERAGE": ScoreKey(pool=-1),
    "M-EDF": ScoreKey(deadlines=1),
    "RANDOM": ScoreKey(noise=1),
}

#: The ten rows, preemptive and not.
ROW_POLICIES = tuple(f"{name}({mode})" for name in ROWS
                     for mode in ("P", "NP"))

#: The policy axis: every registered policy and the test-only ones.
POLICIES = tuple(f"{name}({mode})"
                 for name in available_policies() + list(EXTRA)
                 for mode in ("P", "NP"))


def make_policy(label: str) -> tuple[Policy, bool]:
    """A fresh ``(policy, preemptive)`` for a label such as
    ``"LDF(NP)"``."""
    name, _paren, mode = label.partition("(")
    if name in EXTRA:
        return EXTRA[name](), mode != "NP)"
    return parse_policy_spec(label)


#: The fault axis: no layer, a spec, or a recording injector.
FAULT_KINDS = ("none", "spec", "recording")


@dataclass(eq=False)
class Case:
    """One online run, as data."""

    profiles: ProfileSet
    epoch: Epoch
    policy: str
    budget: BudgetVector
    faults: str = "none"
    spec: FaultSpec | None = None
    retry: RetryConfig | None = None
    breaker: tuple | None = None
    plan: ChurnPlan | None = None
    shards: int = 1

    def make_policy(self) -> tuple[Policy, bool]:
        return make_policy(self.policy)

    @property
    def has_row(self) -> bool:
        return key_of(self.make_policy()[0]) is not None

    def layer(self) -> tuple:
        """Fresh ``(faults, retry, breaker)`` for one run."""
        faults = {"spec": self.spec}.get(self.faults)
        if self.faults == "recording":
            faults = FaultInjector(self.spec)
        breaker = None if self.breaker is None \
            else CircuitBreaker(*self.breaker)
        return faults, self.retry, breaker


@st.composite
def cases(draw, faults: str) -> Case:
    """A case with fault layer ``faults``; a third are churned."""
    if draw(st.integers(0, 2)) == 0:
        profiles, plan = draw(plans(quotas=True))
    else:
        profiles, plan = draw(profile_sets(max_profiles=4,
                                           quotas=True)), None
    return Case(
        profiles, epoch(), draw(st.sampled_from(POLICIES)),
        draw(budget_vectors()), faults,
        spec=None if faults == "none"
        else draw(fault_specs(with_per_resource=True)),
        retry=draw(retry_configs()), breaker=draw(breaker_params()),
        plan=plan, shards=draw(st.integers(1, 4)))


# ----------------------------------------------------------------------
# Pinned instances
# ----------------------------------------------------------------------

#: Every policy fails probes on it under ``_DROPS``.
ONLINE_2108 = ExperimentConfig(
    epoch_length=30, num_resources=8, num_profiles=12, intensity=5.0,
    window=4, budget=2, repetitions=1, grouping="overlap", seed=2108)

#: The federation's instance: 18 profiles on 12 resources.
FEDERATED_123 = ExperimentConfig(
    epoch_length=60, num_resources=12, num_profiles=18, max_rank=3,
    intensity=8.0, budget=2, window=6, repetitions=1, seed=123)

#: Contended: one probe per chronon.
CONTENDED_77 = ExperimentConfig(
    epoch_length=40, num_resources=10, num_profiles=14, intensity=5.0,
    window=6, budget=1, repetitions=1, grouping="overlap", seed=77)

#: Late joins and cancels: dropped and doomed-at-birth t-intervals.
CHURN_29 = ChurnConfig(
    epoch_length=40, num_resources=8, intensity=5.0, num_clients=8,
    profiles_per_client=3, window=6, budget=2, join_spread=0.9,
    leave_probability=0.5, seed=29)

_DROPS = FaultSpec(failure_probability=0.3, timeout_probability=0.1,
                   seed=5)
_OUTAGE = FaultSpec(failure_probability=0.25, timeout_probability=0.1,
                    stale_probability=0.05, seed=7,
                    outages=(Outage(3, 10, 15),), max_probes_per_chronon=3)
#: A budget of 1 with a burst or a pause every third chronon.
_BURSTY = BudgetVector(1, overrides={T: T % 4 for T in range(3, 40, 3)})

#: The federation's policies per shard count.
_FEDERATED = {
    1: ("S-EDF(P)", "S-EDF(NP)", "M-EDF(P)", "M-EDF(NP)", "MRSF(P)",
        "COVERAGE(NP)", "ANTI-MRSF(P)", "FCFS(NP)", "LFF(P)",
        "STATICRANK(NP)"),
    2: ("M-EDF(P)", "S-EDF(NP)"),
    3: ("M-EDF(P)", "S-EDF(NP)"),
    4: ("M-EDF(P)", "S-EDF(NP)", "COVERAGE(NP)"),
    8: ("M-EDF(P)", "S-EDF(NP)"),
}


def _one_short(profile: Profile) -> Profile:
    """``profile`` with each t-interval of several EIs needing one
    fewer than all of them."""
    return Profile([TInterval(eta.eis, need=max(1, eta.size - 1))
                    for eta in profile], name=profile.name)


@cache
def _instance(config, quota: bool = False
              ) -> tuple[ProfileSet, Epoch, ChurnPlan | None]:
    """A pinned instance; with ``quota``, every t-interval of several
    EIs (the plan's added ones too) needs one fewer."""
    reshape = _one_short if quota else (lambda profile: profile)
    if isinstance(config, ChurnConfig):
        initial, plan, epoch_ = build_churn_workload(config)
        if quota:
            plan = ChurnPlan(
                ChurnEvent.add(event.chronon, reshape(event.profile))
                if event.action == "add" else event for event in plan)
        return ProfileSet(map(reshape, initial)), epoch_, plan
    # Generated sets hold empty profiles: every engine gets them too.
    profiles = map(reshape, make_instance(config, 0)[1])
    return ProfileSet(profiles), config.epoch, None


def _pinned(config, label, faults="none", spec=None, retry=None,
            breaker=None, shards=1, budget=None, quota=False) -> Case:
    profiles, epoch_, plan = _instance(config, quota)
    budget = budget or BudgetVector(config.budget)
    return Case(profiles, epoch_, label, budget, faults, spec, retry,
                breaker, plan, shards)


def _pinned_cases():
    for label in POLICIES:
        kind = "recording" if label.endswith("(NP)") else "spec"
        yield f"2108/faulty/{label}", partial(
            _pinned, ONLINE_2108, label, kind, _DROPS, RetryConfig(1),
            (2, 3), 2)
    for shards, labels in _FEDERATED.items():
        for label in labels:
            yield f"123/reliable/K{shards}/{label}", partial(
                _pinned, FEDERATED_123, label, shards=shards)
    for shards in (1, 4):
        for label in ("S-EDF(P)", "S-EDF(NP)", "M-EDF(P)", "M-EDF(NP)",
                      "COVERAGE(NP)"):
            yield f"123/faulty/K{shards}/{label}", partial(
                _pinned, FEDERATED_123, label, "spec", _OUTAGE,
                RetryConfig(2), (2, 5), shards)
    for label in ("LDF(P)", "LDF(NP)"):
        yield f"77/reliable/{label}", partial(
            _pinned, CONTENDED_77, label, shards=2)
        yield f"77/faulty/{label}", partial(
            _pinned, CONTENDED_77, label, "spec",
            FaultSpec(failure_probability=0.3, seed=4), RetryConfig(1),
            (2, 3), 2)
    # Quotas: every t-interval of several EIs needs one fewer.
    for label in ("Q-MRSF(P)", "Q-MRSF(NP)", "MRSF(NP)", "M-EDF(P)",
                  "S-EDF(NP)", "COVERAGE(P)"):
        yield f"77/quota/reliable/{label}", partial(
            _pinned, CONTENDED_77, label, shards=2, quota=True)
    for label in ("Q-MRSF(P)", "M-EDF(NP)"):
        yield f"2108/quota/faulty/{label}", partial(
            _pinned, ONLINE_2108, label, "recording", _DROPS,
            RetryConfig(1), (2, 3), 3, quota=True)
    for label in ("Q-MRSF(NP)", "S-EDF(P)"):
        yield f"29/quota/reliable/{label}", partial(
            _pinned, CHURN_29, label, quota=True)
    for label in ("MRSF(P)", "S-EDF(NP)", "M-EDF(P)", "COVERAGE(NP)"):
        yield f"29/reliable/{label}", partial(_pinned, CHURN_29, label)
        yield f"29/faulty/{label}", partial(
            _pinned, CHURN_29, label, "recording",
            FaultSpec(failure_probability=0.3, timeout_probability=0.1,
                      seed=7), RetryConfig(2), (2, 3), 4, _BURSTY)
    yield "late/reliable/M-EDF(P)", _closed_before_registration


def _closed_before_registration() -> Case:
    """A quota t-interval registered at clock 1, after the window of one
    of its EIs closed at 1: M-EDF counts that EI as started, so at T = 2
    its open sibling on resource 1 scores ``(1 - 2) + (2 - 2) = -1`` and
    beats the initial t-interval's last EI on resource 0 (``2 - 2``)."""
    initial = ProfileSet([Profile([eta((0, 1, 1), (0, 2, 2))])])
    late = Profile([TInterval(eta((0, 1, 1), (1, 1, 2)).eis, need=1)])
    return Case(initial, epoch(), "M-EDF(P)", BudgetVector(1),
                plan=ChurnPlan([ChurnEvent.add(1, late)]))


#: The pinned cases by name, built on demand.
PINNED = dict(_pinned_cases())


def pinned(prefix: str) -> list[Case]:
    """Every pinned case whose name starts with ``prefix``."""
    return [build() for name, build in PINNED.items()
            if name.startswith(prefix)]


# ----------------------------------------------------------------------
# The hand-built churn instance
# ----------------------------------------------------------------------

def hand_profile(*etas) -> Profile:
    """A profile of t-intervals, each a list of ``(resource, start,
    finish)`` triples."""
    return Profile([eta(*spec) for spec in etas])


HAND_EPOCH = Epoch(12)
HAND_INITIAL = ProfileSet([hand_profile([(2, 2, 8)],
                                        [(1, 6, 9), (3, 10, 11)])])
#: First window closes at 3; the sibling window is still ahead at 5.
HAND_LATE = hand_profile([(0, 1, 3), (1, 7, 9)])
