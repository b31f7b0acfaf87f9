"""Host-speed calibration: times reported in *reference seconds*.

The hosts this benchmark runs on are shared. Measured on the 2-core
sandbox it was built in: the same pure-Python loop runs up to 35 % slower
for minutes at a time and then recovers, so two runs of one commit a few
minutes apart differ by more than any bound worth gating on, and no
number of repetitions inside a run averages that out.

So every timed region is bracketed, in the same process, by a fixed
calibration kernel — interpreter-bound like the program itself — and
every duration the program's speed determines is divided by
``speed = median(kernel seconds) / REFERENCE_S``. A duration of 1.0 then
means "one second on a host where the kernel takes ``REFERENCE_S``".
Raw seconds and the kernel samples of every repetition stay in the result
file. Not scaled: memory; the service's t-intervals per second, which the
request schedule sets; and the service's latencies, which are mostly
loopback sockets and event-loop wake-ups and do not follow an
interpreter-bound kernel (scaling them doubled their spread).

What calibration cannot remove is noise that is not CPU speed: system
time spent in first-touch page faults varies 0.05-0.8 s for the same
``catalog`` repetition on this host.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "SAMPLES_PER_SIDE", "spin", "bracket", "speed"]

#: Kernel seconds that count as speed 1.0: its median on the sandbox the
#: baseline was recorded on, so scaled and raw seconds are of one size.
REFERENCE_S = 0.025
SAMPLES_PER_SIDE = 3


def spin() -> float:
    """Run the calibration kernel once; returns its seconds.

    Integer arithmetic, dict stores and a keyed sort: the operations the
    schedulers' chronon loops are made of. It allocates little, on
    purpose — it calibrates the processor, not the page-fault path.
    """
    started = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        acc += (i * i) % 7
        table[i & 4095] = acc
    sorted(table.items(), key=lambda item: item[1])
    return time.perf_counter() - started


def bracket() -> list[float]:
    """One side of a bracket: ``SAMPLES_PER_SIDE`` kernel timings."""
    return [spin() for _ in range(SAMPLES_PER_SIDE)]


def speed(samples: list[float]) -> float:
    """Host slowness relative to the reference: > 1 means slower."""
    return statistics.median(samples) / REFERENCE_S
