"""Budget-preserving failure handling: retries, backoff, circuit breaking.

The paper's per-chronon budget ``C_j`` counts *requests*, so every failed
probe is budget burned. Two mechanisms keep a policy from burning its
whole budget on a dead source:

* :class:`RetryConfig` — an in-chronon retry allowance for failed probes,
  spent only from budget left over after the policy's selections;
* :class:`CircuitBreaker` — per-resource consecutive-failure tracking
  with exponential backoff: after ``failure_threshold`` consecutive
  failures a resource is *quarantined* (excluded from candidate
  selection) for a cooldown that doubles on every re-trip, so a
  persistently dead resource costs one trial probe per cooldown window
  instead of one per chronon.

This module deliberately imports nothing from the runtime — the same
breaker instance drives both the measurement simulator and the live
proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import FaultError
from repro.core.timeline import Chronon

__all__ = ["BackoffPolicy", "CircuitBreaker", "RetryConfig"]


@dataclass(frozen=True, slots=True)
class RetryConfig:
    """In-chronon retry allowance for failed probes.

    Attributes
    ----------
    max_retries:
        Retries allowed per failed resource within one chronon. Each
        retry consumes one unit of leftover budget.
    """

    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError(
                f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True, slots=True)
class BackoffPolicy:
    """Retry allowance with deterministic full-jitter exponential delays.

    Generalizes :class:`RetryConfig` for the asyncio proxy: besides *how
    many* retries a failed probe gets, it decides *how long* to wait
    before each one. Delays follow AWS-style "full jitter": attempt
    ``k`` sleeps a uniform draw from ``[0, min(max_delay, base_delay *
    factor**(k-1))]``, which decorrelates retry storms without giving up
    the exponential envelope.

    Every draw is :func:`~repro.faults.model.keyed_draw` of ``(seed,
    "backoff", key, attempt)`` — the fault channels' draw — so two runs
    with the same seed produce identical delays regardless of coroutine
    interleaving.

    Attributes
    ----------
    max_retries:
        Retries allowed per failed resource within one chronon (each
        spends one unit of leftover budget, exactly like
        :class:`RetryConfig`).
    base_delay:
        Upper bound of the first retry's jitter window, in seconds.
    factor:
        Exponential growth of the jitter window per attempt.
    max_delay:
        Cap on any single jitter window, in seconds.
    seed:
        Seed of the deterministic jitter keying.
    """

    max_retries: int = 1
    base_delay: float = 0.01
    factor: float = 2.0
    max_delay: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0.0:
            raise FaultError(
                f"base_delay must be >= 0, got {self.base_delay}")
        if self.factor < 1.0:
            raise FaultError(f"factor must be >= 1.0, got {self.factor}")
        if self.max_delay < self.base_delay:
            raise FaultError("max_delay must be >= base_delay")

    @classmethod
    def from_retry(cls, retry: RetryConfig | None,
                   **overrides) -> "BackoffPolicy":
        """Lift a plain :class:`RetryConfig` (or None) into a policy."""
        max_retries = retry.max_retries if retry is not None else 0
        return cls(max_retries=max_retries, **overrides)

    def as_retry(self) -> RetryConfig:
        """The in-chronon retry allowance this policy grants."""
        return RetryConfig(max_retries=self.max_retries)

    def window_for(self, attempt: int) -> float:
        """The jitter window (seconds) for retry attempt ``attempt >= 1``."""
        if attempt < 1:
            raise FaultError(f"attempt must be >= 1, got {attempt}")
        return min(self.max_delay,
                   self.base_delay * self.factor ** (attempt - 1))

    def delay_for(self, key: str, attempt: int) -> float:
        """Full-jitter delay before retry ``attempt`` of channel ``key``.

        ``key`` identifies the retry stream (the async engine passes
        ``"resource:chronon"``); identical keys and seeds reproduce
        identical delays across runs and processes.
        """
        window = self.window_for(attempt)
        if window <= 0.0:
            return 0.0
        # Imported at its one use: a service host that never retries
        # loads the breaker but not the fault model.
        from repro.faults.model import keyed_draw
        return keyed_draw(self.seed, "backoff", key, attempt) * window


class _ResourceState:
    """Breaker bookkeeping for one resource."""

    __slots__ = ("consecutive_failures", "open_until", "trips")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.open_until: Chronon = -1
        self.trips = 0


class CircuitBreaker:
    """Per-resource quarantine with exponential backoff.

    A resource trips open after ``failure_threshold`` consecutive
    failures and stays quarantined for ``cooldown`` chronons; when the
    cooldown elapses the next probe is a half-open trial — success resets
    the resource, failure re-trips it with the cooldown scaled by
    ``backoff_factor`` (capped at ``max_cooldown``).

    Parameters
    ----------
    failure_threshold:
        Consecutive failures before the first trip.
    cooldown:
        Initial quarantine length, in chronons.
    backoff_factor:
        Cooldown multiplier per successive trip.
    max_cooldown:
        Upper bound on any single quarantine window.
    """

    def __init__(self, failure_threshold: int = 3, cooldown: int = 4,
                 backoff_factor: float = 2.0,
                 max_cooldown: int = 64) -> None:
        if failure_threshold < 1:
            raise FaultError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 1:
            raise FaultError(f"cooldown must be >= 1, got {cooldown}")
        if backoff_factor < 1.0:
            raise FaultError(
                f"backoff_factor must be >= 1.0, got {backoff_factor}")
        if max_cooldown < cooldown:
            raise FaultError("max_cooldown must be >= cooldown")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.backoff_factor = backoff_factor
        self.max_cooldown = max_cooldown
        # From this many trips on the scaled cooldown is past the cap
        # with a trip to spare (floor + 2 absorbs the log's rounding).
        self._capped_from = (
            math.floor(math.log(max_cooldown / cooldown, backoff_factor)) + 2
            if backoff_factor > 1.0 else math.inf)
        self._states: dict[int, _ResourceState] = {}
        self.ever_quarantined: set[int] = set()

    def _cooldown_for(self, trips: int) -> int:
        # Past the cap the power is never computed: on a resource that
        # never answers it would overflow a float near 1 023 trips.
        if trips >= self._capped_from:
            return self.max_cooldown
        # ceil, not int(): truncation would stall cooldown growth for
        # fractional backoff_factor near 1 (e.g. 1.5 gives 1, 1, 2, ...
        # truncated but 1, 2, 3, ... ceiled from cooldown=1).
        scaled = self.cooldown * self.backoff_factor ** trips
        return min(self.max_cooldown, math.ceil(scaled))

    def is_blocked(self, resource_id: int, chronon: Chronon) -> bool:
        """True while the resource is quarantined at ``chronon``."""
        state = self._states.get(resource_id)
        return state is not None and chronon <= state.open_until

    def is_half_open(self, resource_id: int, chronon: Chronon) -> bool:
        """True when the next probe of the resource is a quarantine-exit
        trial: it has tripped at least once, its cooldown has elapsed,
        and no success has closed it since. The async executor hedges
        exactly these probes."""
        state = self._states.get(resource_id)
        return (state is not None and state.trips > 0
                and chronon > state.open_until)

    def reset(self) -> None:
        """Return the breaker to its as-constructed state so one
        instance can be reused across epochs: all failure counters,
        open windows, trip escalations, and the quarantine census are
        forgotten."""
        self._states.clear()
        self.ever_quarantined.clear()

    def record_failure(self, resource_id: int, chronon: Chronon) -> bool:
        """Count one failed probe; returns True when this trips the breaker.

        Failures past the threshold (the half-open trial failing) re-trip
        immediately with a longer cooldown.
        """
        state = self._states.setdefault(resource_id, _ResourceState())
        state.consecutive_failures += 1
        if state.consecutive_failures < self.failure_threshold:
            return False
        state.open_until = chronon + self._cooldown_for(state.trips)
        state.trips += 1
        self.ever_quarantined.add(resource_id)
        return True

    def record_success(self, resource_id: int) -> None:
        """A successful probe fully closes the resource's breaker."""
        self._states.pop(resource_id, None)

    def quarantined_now(self, chronon: Chronon) -> set[int]:
        """Resources currently quarantined at ``chronon``."""
        return {resource_id for resource_id, state in self._states.items()
                if chronon <= state.open_until}

    @property
    def quarantined_count(self) -> int:
        """Distinct resources ever quarantined."""
        return len(self.ever_quarantined)
