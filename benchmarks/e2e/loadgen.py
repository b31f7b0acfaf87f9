"""The ``service`` workload's load generator (stdlib only, parent side).

Clients of the proxy are independent of each other, so the load is an
**open loop**: registrations are due on a fixed schedule that does not
slow down when the service does. One request is in flight at a time; a
request that finds the previous one still running is sent late, and its
latency is still counted from when it was *due*, so a stall is charged
to every request it delayed. How late the generator itself ran is
reported next to the latencies.

Two connections are busy at once: the request in flight and one
``GET /events`` subscriber, whose tick frames say how late each chronon
(and every notification in it) reached a client.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

__all__ = ["OpenLoop", "Sent", "Subscriber", "http_request",
           "profile_body", "drive"]

#: Bearer key of the one client the generator registers as.
KEY = "e2e-load"
#: Every ``CANCEL_EVERY``-th registration is cancelled ``CANCEL_AFTER_S``
#: after its response arrived.
CANCEL_EVERY = 5
CANCEL_AFTER_S = 0.5
#: Registered windows open 2..40 chronons after the last tick seen and
#: close at most 60 chronons after it.
HORIZON = 60
#: Chronons left unloaded at the end of the epoch so that every
#: registered window (and every cancellation) fits inside it.
QUIET_TAIL = HORIZON + 10


@dataclass(frozen=True, slots=True)
class Sent:
    """One request of the open loop, stamped on the generator's clock."""

    action: object
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency_ms(self) -> float:
        """Due time to full response: what the client waited."""
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How long after its due time the generator sent it."""
        return (self.sent - self.due) * 1e3


class OpenLoop:
    """A one-at-a-time sender working through a schedule of due times.

    ``asyncio.sleep`` wakes up 0.5-1 ms late on this host — a third of a
    2 ms registration — so the loop sleeps to ``spin_s`` before a due
    time and spins the rest; the generator has a core to itself.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], Awaitable] = asyncio.sleep,
                 spin_s: float = 0.002) -> None:
        self.clock = clock
        self._sleep = sleep
        self._spin_s = spin_s
        self._queue: list[tuple[float, int, object]] = []
        self._pushed = 0
        self.sent: list[Sent] = []

    def schedule(self, due: float, action: object) -> None:
        """Queue ``action`` to be sent at ``due`` (ties keep this order)."""
        heapq.heappush(self._queue, (due, self._pushed, action))
        self._pushed += 1

    async def run(self, send: Callable[[object], Awaitable[bool]]) -> None:
        """Send everything scheduled, earliest due first; ``send`` may
        schedule follow-ups and returns whether the request succeeded."""
        while self._queue:
            due, _order, action = heapq.heappop(self._queue)
            wait = due - self.clock() - self._spin_s
            if wait > 0:
                await self._sleep(wait)
            while self.clock() < due:
                pass
            sent = self.clock()
            ok = await send(action)
            self.sent.append(Sent(action, due, sent, self.clock(), ok))


async def http_request(port: int, method: str, path: str,
                       body: dict | None = None, key: str | None = None
                       ) -> tuple[int, dict]:
    """One HTTP/1.1 exchange on a fresh loopback connection (the service
    closes after every response); returns (status, JSON payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        head = [f"{method} {path} HTTP/1.1", "Host: localhost"]
        if key:
            head.append(f"Authorization: Bearer {key}")
        head.append(f"Content-Length: {len(payload)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    header, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, (json.loads(rest) if rest else {})


class Subscriber:
    """One ``GET /events`` stream: tick arrival times and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self.tick_times: list[float] = []
        self.last_chronon = 0
        self.counts: dict[str, int] = {}
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self, port: int) -> None:
        reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port)
        self._writer.write(b"GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n")
        await self._writer.drain()
        await reader.readuntil(b": connected\n\n")
        self._task = asyncio.ensure_future(self._read(reader))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        kind = ""
        while True:
            line = await reader.readline()
            if not line:
                return
            text = line.decode("utf-8").rstrip("\n")
            if text.startswith("event: "):
                kind = text[7:]
                self.counts[kind] = self.counts.get(kind, 0) + 1
                if kind == "tick":
                    self.tick_times.append(self._clock())
            elif text.startswith("data: ") and kind == "tick":
                self.last_chronon = json.loads(text[6:])["chronon"]

    async def wait_for_chronon(self, chronon: int, timeout: float) -> bool:
        """True once the tick of ``chronon`` has been seen."""
        deadline = self._clock() + timeout
        while self.last_chronon < chronon:
            if self._clock() > deadline or self._task.done():
                return self.last_chronon >= chronon
            await asyncio.sleep(0.005)
        return True

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()

    def tick_overruns_ms(self, interval_s: float) -> list[float]:
        """Gap between consecutive tick frames minus the tick interval."""
        return [(later - earlier - interval_s) * 1e3 for earlier, later
                in zip(self.tick_times, self.tick_times[1:])]


def profile_body(rng: random.Random, index: int, resources: int,
                 last_chronon: int, epoch_last: int) -> dict:
    """Registration ``index``: 1-4 t-intervals of 1-3 EIs each, windows
    opening 2-40 chronons after the last tick seen."""
    tintervals = []
    for _ in range(rng.randint(1, 4)):
        eis = []
        for _ in range(rng.randint(1, 3)):
            start = min(last_chronon + rng.randint(2, 40), epoch_last)
            finish = min(start + rng.randint(0, 20),
                         last_chronon + HORIZON, epoch_last)
            eis.append([rng.randrange(resources), start, finish])
        tintervals.append(eis)
    return {"name": f"p{index}", "tintervals": tintervals}


async def drive(port: int, seed: int, rate: float, epoch_length: int,
                tick_interval_s: float, resources: int,
                subscriber: Subscriber) -> dict:
    """Run one window's schedule against the service; client-side view."""
    rng = random.Random(seed)
    loop = OpenLoop()
    origin = loop.clock()
    posts = int((epoch_length - QUIET_TAIL) * tick_interval_s * rate)
    for index in range(posts):
        loop.schedule(origin + index / rate, ("POST", index))

    async def send(action) -> bool:
        method, subject = action
        if method == "DELETE":
            status, _ = await http_request(
                port, "DELETE", f"/profiles/{subject}", key=KEY)
            return status == 204
        status, payload = await http_request(
            port, "POST", "/profiles",
            body=profile_body(rng, subject, resources,
                              subscriber.last_chronon, epoch_length),
            key=KEY)
        if status == 201 and subject % CANCEL_EVERY == CANCEL_EVERY - 1:
            loop.schedule(loop.clock() + CANCEL_AFTER_S,
                          ("DELETE", payload["profile_id"]))
        return status == 201

    await loop.run(send)
    registers = [each for each in loop.sent if each.action[0] == "POST"]
    return {
        "requests": len(loop.sent),
        "refused": sum(1 for each in loop.sent if not each.ok),
        "register_ms": [each.latency_ms for each in registers],
        "late_ms": [each.late_ms for each in loop.sent],
        "load_s": loop.clock() - origin,
    }

