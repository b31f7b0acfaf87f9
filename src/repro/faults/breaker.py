"""Budget-preserving failure handling: retries, backoff, circuit breaking.

The paper's per-chronon budget ``C_j`` counts *requests*, so every failed
probe is budget burned. Two mechanisms keep a policy from burning its
whole budget on a dead source:

* :class:`RetryConfig` — an in-chronon retry allowance for failed probes,
  spent only from budget left over after the policy's selections, and
  the jittered delay the asyncio proxy sleeps before each retry;
* :class:`CircuitBreaker` — per-resource consecutive-failure tracking
  with exponential backoff: after ``failure_threshold`` consecutive
  failures a resource is *quarantined* (excluded from candidate
  selection) for a cooldown that doubles on every re-trip, so a
  persistently dead resource costs one trial probe per cooldown window
  instead of one per chronon.

Both check every field where they are built: an integer field must be
an ``int`` (not a ``bool``) at or above its floor, a float field a
finite number, or a :class:`~repro.core.errors.FaultError` names it.

This module deliberately imports nothing from the runtime — the same
breaker instance drives both the measurement simulator and the live
proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from repro.core.errors import FaultError
from repro.core.timeline import Chronon

__all__ = ["CircuitBreaker", "RetryConfig"]


def _check(name: str, value, floor=None, integral: bool = True) -> None:
    """An ``int`` (not a ``bool``) if ``integral``, else a finite real,
    at or above ``floor`` — or a FaultError naming the field."""
    if (isinstance(value, bool)
            or not isinstance(value, Integral if integral else Real)
            or not (isinstance(value, Integral) or math.isfinite(value))):
        kind = "an int" if integral else "a finite number"
        raise FaultError(f"{name} must be {kind}, got {value!r}")
    if floor is not None and value < floor:
        raise FaultError(f"{name} must be >= {floor}, got {value}")


@dataclass(frozen=True, slots=True)
class RetryConfig:
    """In-chronon retry allowance with deterministic full-jitter delays.

    ``max_retries`` is *how many* retries a failed probe gets; every
    engine reads it. The four delay fields decide *how long* the asyncio
    proxy waits before each one (the synchronous engines do not sleep).
    Delays follow AWS-style "full jitter": attempt ``k`` sleeps a uniform
    draw from ``[0, min(max_delay, base_delay * factor**(k-1))]``, which
    decorrelates retry storms without giving up the exponential
    envelope.

    Every draw is :func:`~repro.faults.model.keyed_draw` of ``(seed,
    "backoff", key, attempt)`` — the fault channels' draw — so two runs
    with the same seed produce identical delays regardless of coroutine
    interleaving.

    Attributes
    ----------
    max_retries:
        Retries allowed per failed resource within one chronon. Each
        retry consumes one unit of leftover budget.
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
        _check("max_retries", self.max_retries, 0)
        _check("base_delay", self.base_delay, 0.0, integral=False)
        _check("factor", self.factor, 1.0, integral=False)
        _check("max_delay", self.max_delay, self.base_delay, integral=False)
        _check("seed", self.seed)

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
        _check("failure_threshold", failure_threshold, 1)
        _check("cooldown", cooldown, 1)
        _check("backoff_factor", backoff_factor, 1.0, integral=False)
        _check("max_cooldown", max_cooldown, cooldown)
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
