"""The open-loop sender: due-time stamping and reported lateness."""

import asyncio
import random

from loadgen import HORIZON, OpenLoop, profile_body


class FakeTime:
    """A clock that only moves when somebody sleeps or stalls on it."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds


def test_latency_counts_from_due_time_when_the_consumer_stalls():
    fake = FakeTime()
    loop = OpenLoop(clock=fake.clock, sleep=fake.sleep, spin_s=0.0)
    for index in range(4):                  # due at +0, +10, +20, +30 ms
        loop.schedule(100.0 + index * 0.010, index)

    async def send(index):
        # The first request stalls for 25 ms; the others take 1 ms.
        await fake.sleep(0.025 if index == 0 else 0.001)
        return True

    asyncio.run(loop.run(send))
    sent = loop.sent
    assert [each.action for each in sent] == [0, 1, 2, 3]
    # Request 0: sent on time, waited its own 25 ms.
    assert round(sent[0].late_ms, 6) == 0 and round(sent[0].latency_ms, 6) == 25
    # Request 1 was due at +10 ms but could only go at +25 ms: 15 ms late,
    # and its latency is charged from +10 ms, not from when it was sent.
    assert round(sent[1].late_ms, 6) == 15
    assert round(sent[1].latency_ms, 6) == 16
    # Request 2 (due +20 ms) goes at +26 ms: 6 ms late, 7 ms latency.
    assert round(sent[2].late_ms, 6) == 6
    assert round(sent[2].latency_ms, 6) == 7
    # Request 3 (due +30 ms): the stall is absorbed, the loop is on time.
    assert round(sent[3].late_ms, 6) == 0
    assert round(sent[3].latency_ms, 6) == 1


def test_follow_ups_are_sent_in_due_order_and_failures_recorded():
    fake = FakeTime()
    loop = OpenLoop(clock=fake.clock, sleep=fake.sleep, spin_s=0.0)
    loop.schedule(100.0, "post-a")
    loop.schedule(100.3, "post-b")

    async def send(action):
        await fake.sleep(0.001)
        if action == "post-a":
            loop.schedule(fake.clock() + 0.2, "cancel-a")
        return action != "post-b"

    asyncio.run(loop.run(send))
    assert [each.action for each in loop.sent] == \
        ["post-a", "cancel-a", "post-b"]
    assert [each.ok for each in loop.sent] == [True, True, False]


def test_profile_bodies_are_seeded_and_stay_inside_the_horizon():
    first = [profile_body(random.Random(9), i, 64, 50, 300)
             for i in range(20)]
    again = [profile_body(random.Random(9), i, 64, 50, 300)
             for i in range(20)]
    assert first == again
    for body in first:
        assert 1 <= len(body["tintervals"]) <= 4
        for eis in body["tintervals"]:
            assert 1 <= len(eis) <= 3
            for resource, start, finish in eis:
                assert 0 <= resource < 64
                assert 52 <= start <= finish <= 50 + HORIZON
    near_end = profile_body(random.Random(1), 0, 64, 295, 300)
    assert all(finish <= 300 for eis in near_end["tintervals"]
               for _r, _s, finish in eis)
