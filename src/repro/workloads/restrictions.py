"""Delivery restrictions: turning update events into execution intervals.

Section 5.1 of the paper derives execution intervals from update events via
two restrictions:

* **overwrite** — every update must be delivered *before the next update*
  overwrites it: an update at ``t`` followed by the next update at ``t'``
  yields the EI ``[t, t' - 1]``; the last update's EI runs to the end of
  the epoch.
* **window(W)** — every update must be delivered within ``W`` chronons:
  an update at ``t`` yields ``[t, min(t + W, K)]``. ``window(0)`` forces an
  immediate probe (unit-width EIs — the ``P^[1]`` setting of Section 5.3).

Restrictions are small strategy objects so that templates can mix them.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.core.intervals import ExecutionInterval
from repro.core.timeline import Chronon, Epoch

__all__ = [
    "DeliveryRestriction",
    "OverwriteRestriction",
    "WindowRestriction",
]


class DeliveryRestriction(Protocol):
    """Maps one resource's update chronons to execution intervals."""

    def execution_intervals(self, resource_id: int,
                            update_chronons: Sequence[Chronon],
                            epoch: Epoch) -> list[ExecutionInterval]:
        """EIs for a resource given its sorted update chronons."""
        ...


class OverwriteRestriction:
    """Deliver each update before the next one overwrites it.

    An update at chronon ``t_i`` with successor ``t_{i+1}`` produces
    ``[t_i, t_{i+1} - 1]``; consecutive-chronon updates produce unit EIs.
    The final update's EI extends to the end of the epoch (nothing ever
    overwrites it inside the horizon).
    """

    def execution_intervals(self, resource_id: int,
                            update_chronons: Sequence[Chronon],
                            epoch: Epoch) -> list[ExecutionInterval]:
        """EIs running from each update to just before the next one."""
        chronons = sorted(set(update_chronons))
        intervals: list[ExecutionInterval] = []
        for index, start in enumerate(chronons):
            if index + 1 < len(chronons):
                finish = chronons[index + 1] - 1
            else:
                finish = epoch.last
            intervals.append(ExecutionInterval(resource_id, start,
                                               max(start, finish)))
        return intervals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "OverwriteRestriction()"


class WindowRestriction:
    """Deliver each update within ``window`` chronons of its posting.

    ``window = 0`` demands an immediate probe, producing unit-width EIs;
    this is exactly how the paper constructs ``P^[1]`` instances in §5.3.
    """

    def __init__(self, window: int) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.window = window

    def execution_intervals(self, resource_id: int,
                            update_chronons: Sequence[Chronon],
                            epoch: Epoch) -> list[ExecutionInterval]:
        """EIs of width ``window + 1`` starting at each update."""
        chronons = sorted(set(update_chronons))
        return [
            ExecutionInterval(resource_id, start,
                              min(start + self.window, epoch.last))
            for start in chronons
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WindowRestriction(W={self.window})"

