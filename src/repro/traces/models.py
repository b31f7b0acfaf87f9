"""Update models: how the proxy anticipates resource updates.

Section 5.1 of the paper uses two models:

* **FPN(1)** — "perfect knowledge of the real update trace": execution
  intervals are derived directly from the observed events. We model this as
  an update model that simply replays a recorded :class:`UpdateTrace`.
* **Poisson(lambda)** — synthetic updates where ``lambda`` controls the
  *expected number of updates per resource over the epoch*. We synthesize
  them by drawing exponential inter-arrival gaps with mean ``K / lambda``
  and discretizing to chronons (multiple hits in the same chronon collapse,
  matching the chronon-is-indivisible semantics).

Both are exposed through the :class:`UpdateModel` protocol so workload
generators are model-agnostic.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.core.timeline import Epoch
from repro.traces.events import UpdateEvent, UpdateTrace

__all__ = [
    "UpdateModel",
    "FPNUpdateModel",
    "PoissonUpdateModel",
    "PeriodicUpdateModel",
]


class UpdateModel(Protocol):
    """Anything that can produce an update trace for a set of resources."""

    def generate(self, resource_ids: Sequence[int],
                 epoch: Epoch) -> UpdateTrace:
        """Produce the update trace over the epoch for the given resources."""
        ...


class FPNUpdateModel:
    """FPN(1): perfect knowledge of a recorded trace.

    The model replays the wrapped trace, restricted to the requested
    resources and epoch. ``FPN(1)`` in the paper ("First Probe after
    update, with probability 1 of knowing it") means the proxy knows every
    real update instant exactly, which is what replaying the trace gives.
    """

    def __init__(self, trace: UpdateTrace) -> None:
        self._trace = trace

    @property
    def trace(self) -> UpdateTrace:
        """The wrapped ground-truth trace."""
        return self._trace

    def generate(self, resource_ids: Sequence[int],
                 epoch: Epoch) -> UpdateTrace:
        """Replay the recorded events for the given resources/epoch."""
        wanted = set(resource_ids)
        events = [event for event in self._trace
                  if event.resource_id in wanted
                  and event.chronon in epoch]
        return UpdateTrace(events, epoch)


class PoissonUpdateModel:
    """Poisson(lambda) synthetic updates.

    Parameters
    ----------
    intensity:
        Expected number of updates per resource over the whole epoch
        (the paper's ``lambda``; e.g. 20 or 50 for ``K = 1000``).
    seed:
        RNG seed for reproducibility.
    per_resource_intensity:
        Optional mapping overriding the intensity of specific resources,
        enabling heterogeneous workloads (popular feeds update more often).

    The gaps are drawn in batches; ``tests/workloads/oracle.py`` holds
    the event-at-a-time loop this equals draw for draw (same trace, and
    the generator left at the same stream position).
    """

    def __init__(self, intensity: float, seed: int | None = None,
                 per_resource_intensity: dict[int, float] | None = None,
                 ) -> None:
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        self._intensity = intensity
        self._per_resource = dict(per_resource_intensity or {})
        for resource_id, value in self._per_resource.items():
            if value < 0:
                raise ValueError(
                    f"intensity must be >= 0, got {value} for resource "
                    f"{resource_id}"
                )
        self._rng = np.random.default_rng(seed)

    def intensity_for(self, resource_id: int) -> float:
        """Effective intensity of one resource."""
        return self._per_resource.get(resource_id, self._intensity)

    def generate(self, resource_ids: Sequence[int],
                 epoch: Epoch) -> UpdateTrace:
        """Draw Poisson update streams for the given resources.

        One resource at a time, the process is ``k + 1`` scalar
        ``exponential(mean_gap)`` draws (the last one crosses the
        horizon), each arrival ceiled to its chronon (an arrival in
        ``(j-1, j]`` lands on ``j``; hits in one chronon collapse).
        numpy's ``exponential(scale)`` is a ``standard_exponential()``
        variate times ``scale`` and array fills consume the same stream
        as scalar calls, so one shared ``standard_exponential`` buffer —
        sliced per resource, scaled by that resource's mean gap — holds
        every gap exactly. After all resources are cut, the
        bit-generator state is rewound once and advanced by the draws
        the process used, so a second call continues where the one
        resource at a time process would. The chronons of all resources
        collapse in one sort of ``np.ceil(...)``.
        """
        horizon = float(epoch.length)
        bit_generator = self._rng.bit_generator
        initial_state = bit_generator.state
        homogeneous = not self._per_resource
        if homogeneous:
            estimate = len(resource_ids) * (int(self._intensity) + 8) + 32
        else:
            estimate = sum(
                int(self.intensity_for(resource_id)) + 8
                for resource_id in resource_ids
            ) + 32
        buffer = self._rng.standard_exponential(estimate)
        # Homogeneous intensities share one mean gap, so the whole
        # buffer is scaled once up front — the per-resource slice of the
        # scaled buffer holds exactly the values ``slice * mean_gap``
        # would (elementwise product, identical rounding).
        scaled: np.ndarray | None = None
        if homogeneous and self._intensity > 0:
            scaled = buffer * (horizon / self._intensity)
        position = 0
        arrival_slices: list[np.ndarray] = []
        active_resources: list[int] = []
        counts: list[int] = []
        for resource_id in resource_ids:
            intensity = self.intensity_for(resource_id)
            if intensity <= 0:
                continue
            mean_gap = horizon / intensity
            window = int(intensity + 10.0 * math.sqrt(intensity)) + 16
            while True:
                if position + window > buffer.size:
                    grown = max(buffer.size, window)
                    buffer = np.concatenate(
                        [buffer, self._rng.standard_exponential(grown)])
                    if scaled is not None:
                        scaled = buffer * mean_gap
                if scaled is not None:
                    arrivals = scaled[position:position + window].cumsum()
                else:
                    arrivals = (buffer[position:position + window]
                                * mean_gap).cumsum()
                crossing = int(arrivals.searchsorted(horizon,
                                                     side="right"))
                if crossing < window:
                    break
                window *= 2
            position += crossing + 1
            if crossing:
                arrival_slices.append(arrivals[:crossing])
                active_resources.append(resource_id)
                counts.append(crossing)
        # Rewind the over-drawn buffer; consume exactly the draws the
        # process used, so subsequent draws line up.
        bit_generator.state = initial_state
        if position:
            self._rng.standard_exponential(position)
        if not arrival_slices:
            return UpdateTrace([], epoch)
        # One global dedup pass: encode (resource, chronon) pairs into a
        # single integer key, sort, and keep the first of each run — every
        # resource's same-chronon hits collapse at once.
        chronons = np.maximum(
            np.ceil(np.concatenate(arrival_slices)), 1.0).astype(np.int64)
        resources = np.repeat(np.asarray(active_resources, dtype=np.int64),
                              np.asarray(counts, dtype=np.int64))
        stride = epoch.length + 1
        keys = resources * stride + chronons
        keys.sort()
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        return UpdateTrace.from_columns(keys % stride, keys // stride, epoch)


class PeriodicUpdateModel:
    """Deterministic updates every ``period`` chronons (phase-shiftable).

    Useful for tests and for modeling hourly feeds (55% of Web feeds update
    hourly per the study [10] cited in the paper).
    """

    def __init__(self, period: int, phase: int = 0,
                 phases: dict[int, int] | None = None) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self._period = period
        self._phase = phase
        self._phases = dict(phases or {})

    def generate(self, resource_ids: Sequence[int],
                 epoch: Epoch) -> UpdateTrace:
        """Emit strictly periodic updates (per-resource phases)."""
        events: list[UpdateEvent] = []
        for resource_id in resource_ids:
            phase = self._phases.get(resource_id, self._phase) % self._period
            first = 1 + phase
            events.extend(
                UpdateEvent(chronon, resource_id)
                for chronon in range(first, epoch.length + 1, self._period)
            )
        return UpdateTrace(events, epoch)
