"""The HTTP/SSE front end, exercised over real localhost sockets."""

import asyncio
import json

import pytest

from repro.core import BudgetVector, Epoch
from repro.online import MRSFPolicy
from repro.runtime import OriginServer
from repro.runtime.aio import (
    AdmissionController,
    AsyncMonitoringProxy,
    ProxyService,
)
from repro.traces import UpdateEvent, UpdateTrace

EPOCH = Epoch(10)


def _service(admission=None):
    trace = UpdateTrace([UpdateEvent(2, 0, "a1"),
                         UpdateEvent(4, 1, "b1")], EPOCH)
    proxy = AsyncMonitoringProxy(
        OriginServer(trace), EPOCH, BudgetVector(2), MRSFPolicy())
    return ProxyService(proxy, admission)


async def _request(port, method, path, body=None, key=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    headers = [f"{method} {path} HTTP/1.1", "Host: localhost"]
    if key is not None:
        headers.append(f"Authorization: Bearer {key}")
    if payload:
        headers.append("Content-Type: application/json")
    headers.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest) if rest else {}


async def _raw(port, request: bytes):
    """Send ``request`` as is; the response's status and JSON body, or
    ``(None, {})`` when the server closed the connection unanswered."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    if not raw:
        return None, {}
    head, _, rest = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(rest) if rest else {}


def _post(body: bytes, length) -> bytes:
    return (b"POST /profiles HTTP/1.1\r\nAuthorization: Bearer alice\r\n"
            b"Content-Length: " + str(length).encode() + b"\r\n\r\n"
            + body)


PROFILE_BODY = {
    "name": "alpha",
    "tintervals": [[[0, 1, 5]], [[1, 2, 8]]],
    "utility": 0.7,
}


class TestEndpoints:
    def test_health_ready_stats(self):
        async def scenario():
            service = _service()
            _, port = await service.start()
            assert (await _request(port, "GET", "/healthz"))[0] == 200
            assert (await _request(port, "GET", "/readyz"))[0] == 200
            status, payload = await _request(port, "GET", "/stats")
            assert status == 200
            assert payload["clock"] == 0
            assert payload["epoch"] == EPOCH.last
            await service.stop()
            return True
        assert asyncio.run(scenario())

    def test_register_probe_cancel_lifecycle(self):
        async def scenario():
            service = _service()
            _, port = await service.start()
            status, payload = await _request(
                port, "POST", "/profiles", PROFILE_BODY, key="alice")
            assert status == 201
            profile_id = payload["profile_id"]
            assert payload["shed"] == []

            # Wrong owner cannot cancel; owner can.
            status, _ = await _request(
                port, "DELETE", f"/profiles/{profile_id}", key="bob")
            assert status == 403
            status, _ = await _request(
                port, "DELETE", f"/profiles/{profile_id}", key="alice")
            assert status == 204
            status, _ = await _request(
                port, "DELETE", f"/profiles/{profile_id}", key="alice")
            assert status == 404
            await service.stop()
            return True
        assert asyncio.run(scenario())

    def test_auth_and_validation_errors(self):
        async def scenario():
            service = _service()
            _, port = await service.start()
            assert (await _request(port, "POST", "/profiles",
                                   PROFILE_BODY))[0] == 401
            assert (await _request(port, "POST", "/profiles",
                                   {"tintervals": []},
                                   key="alice"))[0] == 400
            assert (await _request(port, "GET", "/nowhere"))[0] == 404
            assert (await _request(port, "POST", "/healthz"))[0] == 405
            await service.stop()
            return True
        assert asyncio.run(scenario())

    def test_admission_rejects_and_sheds_over_http(self):
        async def scenario():
            admission = AdmissionController(max_tintervals=2)
            service = _service(admission)
            _, port = await service.start()
            low = dict(PROFILE_BODY, utility=0.2)
            status, payload = await _request(
                port, "POST", "/profiles", low, key="alice")
            assert status == 201
            victim = payload["profile_id"]

            # Equal utility displaces nothing: rejected.
            status, _ = await _request(
                port, "POST", "/profiles", low, key="bob")
            assert status == 429

            # Higher utility sheds the low-utility incumbent.
            high = dict(PROFILE_BODY, utility=0.9)
            status, payload = await _request(
                port, "POST", "/profiles", high, key="bob")
            assert status == 201
            assert payload["shed"] == [victim]

            status, payload = await _request(port, "GET", "/stats")
            assert payload["admission"]["shed"] == 1
            assert payload["admission"]["rejected_capacity"] == 1
            await service.stop()
            return True
        assert asyncio.run(scenario())

    def test_sse_stream_delivers_events(self):
        async def scenario():
            service = _service()
            _, port = await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"GET /events HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"text/event-stream" in head

            await _request(port, "POST", "/profiles", PROFILE_BODY,
                           key="alice")
            service.serve_epoch()
            events = []
            while len(events) < 3:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=5.0)
                text = line.decode().strip()
                if text.startswith("event:"):
                    events.append(text.split(": ", 1)[1])
            assert "register" in events
            assert "tick" in events
            writer.close()
            await service.stop()
            return True
        assert asyncio.run(scenario())

    def test_readyz_unready_after_epoch(self):
        async def scenario():
            service = _service()
            _, port = await service.start()
            await service.proxy.arun()
            status, _ = await _request(port, "GET", "/readyz")
            assert status == 503
            await service.stop()
            return True
        assert asyncio.run(scenario())


class TestHostileRequests:
    """Every malformed request is answered with a 400, never dropped."""

    @pytest.mark.parametrize("request_bytes, words", [
        (_post(b"[]", 2), "body must be a JSON object"),
        (_post(b"{}", "two"), "Content-Length must be an integer"),
        (_post(b"{}", -2), "Content-Length must be an integer"),
    ], ids=["a-list-body", "a-non-integer-length", "a-negative-length"])
    def test_a_malformed_request_is_a_400(self, request_bytes, words):
        async def scenario():
            service = _service()
            _, port = await service.start()
            status, payload = await _raw(port, request_bytes)
            await service.stop()
            return status, payload
        status, payload = asyncio.run(scenario())
        assert status == 400
        assert words in payload["error"]

    @pytest.mark.parametrize("suffix", ["+0", "1_0", "-1"])
    def test_a_profile_id_is_ascii_digits(self, suffix):
        """``int()`` would read "+0" as profile 0 and "1_0" as 10."""
        async def scenario():
            service = _service()
            _, port = await service.start()
            for _ in range(11):
                status, _ = await _request(port, "POST", "/profiles",
                                           PROFILE_BODY, key="alice")
                assert status == 201
            got = await _request(port, "DELETE", f"/profiles/{suffix}",
                                 key="alice")
            # Both are still registered: their owner can cancel them.
            kept = [(await _request(port, "DELETE", f"/profiles/{pid}",
                                    key="alice"))[0] for pid in (0, 10)]
            await service.stop()
            return got, kept
        (status, payload), kept = asyncio.run(scenario())
        assert status == 400
        assert payload["error"] == f"bad profile id {suffix!r}"
        assert kept == [204, 204]

    @pytest.mark.parametrize("utility", [float("nan"), float("inf"), -3,
                                         0, "5", True])
    def test_a_bad_utility_is_a_400_and_sheds_nobody(self, utility):
        async def scenario():
            service = _service(AdmissionController(max_tintervals=1))
            _, port = await service.start()
            one = dict(PROFILE_BODY, tintervals=[[[0, 1, 5]]])
            status, _ = await _request(port, "POST", "/profiles",
                                       dict(one, utility=5), key="alice")
            assert status == 201
            got = await _request(port, "POST", "/profiles",
                                 dict(one, utility=utility), key="bob")
            _, stats = await _request(port, "GET", "/stats")
            await service.stop()
            return got, stats
        (status, payload), stats = asyncio.run(scenario())
        assert status == 400
        assert "utility must be a finite number > 0" in payload["error"]
        assert stats["admission"]["shed"] == 0

    def test_a_tinterval_is_read_as_a_profile_file_reads_it(self):
        async def scenario():
            service = _service()
            _, port = await service.start()
            quota = await _request(port, "POST", "/profiles", dict(
                PROFILE_BODY, tintervals=[
                    {"eis": [[0, 1, 5], [1, 2, 8]], "need": 1}]),
                key="alice")
            fractional = await _request(port, "POST", "/profiles", dict(
                PROFILE_BODY, tintervals=[[[0, 1, 5]], [[0.5, 1, 5]]]),
                key="alice")
            await service.stop()
            return quota, fractional
        (status, payload), (bad, error) = asyncio.run(scenario())
        assert status == 201 and payload["shed"] == []
        assert bad == 400
        assert error["error"].startswith("t-interval 1 holds [0.5, 1, 5]")
