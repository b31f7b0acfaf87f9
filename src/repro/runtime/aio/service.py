"""A minimal HTTP/SSE API over the async proxy (stdlib only).

:class:`ProxyService` exposes the :class:`~repro.runtime.aio.proxy.
AsyncMonitoringProxy` as a network service using nothing but
``asyncio.start_server`` and hand-rolled HTTP/1.1 — no web framework,
per the repo's no-new-dependencies rule. Endpoints:

* ``POST /profiles`` — register a profile (JSON body ``{"name",
  "tintervals": [[[resource, start, finish], ...], ...], "utility"}``,
  a t-interval that needs only ``q`` of its EIs written ``{"eis": [...],
  "need": q}`` as in a profile file; ``utility`` a finite number > 0);
  runs admission control first and reports any profiles it shed;
* ``DELETE /profiles/<id>`` — cancel a registration (owner-only);
* ``GET /events`` — a Server-Sent-Events stream of every proxy event
  (registrations, ticks, notifications with their snapshots);
* ``GET /healthz`` / ``GET /readyz`` — liveness vs. readiness (ready
  once the service accepts registrations, 503 after shutdown begins);
* ``GET /stats`` — proxy accounting, clock, and admission census.

Authentication is bearer-key: every data-plane request carries
``Authorization: Bearer <key>``; each key maps to one proxy client
(auto-registered on first use), which scopes quotas and cancellation
rights. Health and stats endpoints are unauthenticated.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import asdict

from repro.core.errors import ModelError
from repro.core.intervals import TInterval
from repro.core.profile import Profile
from repro.runtime.aio.admission import AdmissionController
from repro.runtime.aio.proxy import AsyncMonitoringProxy
from repro.runtime.clients import Client

__all__ = ["ProxyService"]

_MAX_BODY = 1 << 20  # 1 MiB registration bodies are plenty


def _json_response(status: int, payload: dict,
                   reason: str = "") -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reasons = {200: "OK", 201: "Created", 204: "No Content",
               400: "Bad Request", 401: "Unauthorized",
               403: "Forbidden", 404: "Not Found",
               405: "Method Not Allowed", 429: "Too Many Requests",
               503: "Service Unavailable"}
    head = (f"HTTP/1.1 {status} {reason or reasons.get(status, '')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _profile_from_body(body) -> tuple[Profile, float]:
    """The profile and utility a POST body registers, or
    :class:`ModelError`: each t-interval is read as
    :meth:`TInterval.from_record` reads a file's, and the utility is a
    finite number > 0."""
    if not isinstance(body, dict):
        raise ModelError("body must be a JSON object")
    tintervals = body.get("tintervals")
    if not isinstance(tintervals, list) or not tintervals:
        raise ModelError("body must carry a non-empty 'tintervals' list")
    profile = Profile([TInterval.from_record(record, f"t-interval {index}")
                       for index, record in enumerate(tintervals)],
                      name=str(body.get("name", "")))
    utility = body.get("utility", 1.0)
    if (type(utility) not in (int, float) or not math.isfinite(utility)
            or utility <= 0):
        raise ModelError(
            f"utility must be a finite number > 0, not {utility!r}")
    return profile, utility


class ProxyService:
    """The HTTP/SSE front end of one async proxy.

    Parameters
    ----------
    proxy:
        The proxy being served.
    admission:
        Admission controller; ``None`` admits everything.
    host, port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    """

    def __init__(self, proxy: AsyncMonitoringProxy,
                 admission: AdmissionController | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.proxy = proxy
        self.admission = admission
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._ready = False
        self._clients_by_key: dict[str, Client] = {}
        self._owners: dict[int, str] = {}
        self._epoch_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready = True
        return self.host, self.port

    def serve_epoch(self, tick_interval: float = 0.0) -> asyncio.Task:
        """Tick the proxy through its epoch as a background task."""
        if self._epoch_task is None or self._epoch_task.done():
            self._epoch_task = asyncio.ensure_future(
                self.proxy.arun(tick_interval=tick_interval))
        return self._epoch_task

    async def stop(self) -> None:
        """Stop accepting requests and cancel the epoch ticker."""
        self._ready = False
        if self._epoch_task is not None and not self._epoch_task.done():
            self._epoch_task.cancel()
            try:
                await self._epoch_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Registration plane (shared by HTTP and in-process callers)
    # ------------------------------------------------------------------

    def _client_for(self, key: str) -> Client:
        client = self._clients_by_key.get(key)
        if client is None:
            client = self.proxy.register_client(name=key)
            self._clients_by_key[key] = client
        return client

    def register(self, key: str, profile: Profile,
                 utility: float = 1.0) -> tuple[int, dict]:
        """Admission-checked registration; returns (status, payload)."""
        load = len(profile)
        shed_ids: tuple[int, ...] = ()
        if self.admission is not None:
            decision = self.admission.decide(key, load, utility)
            if not decision.admitted:
                status = 429
                return status, {"error": decision.reason}
            shed_ids = decision.shed
            for victim in shed_ids:
                self.admission.release(victim, shed=True)
                self.proxy.unregister_profile(victim)
                self._owners.pop(victim, None)
                self.proxy._emit("shed", {"profile_id": victim})
        client = self._client_for(key)
        profile_id = self.proxy.register_profile(client, profile)
        if self.admission is not None:
            self.admission.admit(profile_id, key, load, utility)
        self._owners[profile_id] = key
        return 201, {"profile_id": profile_id, "shed": list(shed_ids)}

    def cancel(self, key: str, profile_id: int) -> tuple[int, dict]:
        """Owner-checked cancellation; returns (status, payload)."""
        owner = self._owners.get(profile_id)
        if owner is None:
            return 404, {"error": f"unknown profile {profile_id}"}
        if owner != key:
            return 403, {"error": "profile belongs to another client"}
        self.proxy.unregister_profile(profile_id)
        if self.admission is not None:
            self.admission.release(profile_id)
        del self._owners[profile_id]
        return 204, {}

    def stats_payload(self) -> dict:
        payload = {
            "clock": self.proxy.clock,
            "epoch": self.proxy.epoch.last,
            "ready": self._ready,
            "stats": asdict(self.proxy.stats()),
        }
        if self.admission is not None:
            payload["admission"] = self.admission.stats.as_dict()
            payload["active_tintervals"] = self.admission.active_load
        return payload

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            if path == "/events" and method == "GET":
                await self._stream_events(writer)
                return
            response = self._dispatch(method, path, headers, body)
            writer.write(response)
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, path, _version = \
                request_line.decode("ascii").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY:
            return method, path, headers, None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _bearer_key(self, headers: dict[str, str]) -> str | None:
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            key = auth[7:].strip()
            return key or None
        return None

    def _dispatch(self, method: str, path: str, headers: dict,
                  body: bytes | None) -> bytes:
        if body is None:
            return _json_response(
                400, {"error": "Content-Length must be an integer in "
                               f"0..{_MAX_BODY}"})
        if path == "/healthz":
            if method != "GET":
                return _json_response(405, {"error": "GET only"})
            return _json_response(200, {"status": "ok"})
        if path == "/readyz":
            if method != "GET":
                return _json_response(405, {"error": "GET only"})
            if self._ready and self.proxy.clock < self.proxy.epoch.last:
                return _json_response(200, {"ready": True})
            return _json_response(503, {"ready": False})
        if path == "/stats":
            if method != "GET":
                return _json_response(405, {"error": "GET only"})
            return _json_response(200, self.stats_payload())
        if path == "/profiles" and method == "POST":
            return self._post_profile(headers, body)
        if path.startswith("/profiles/") and method == "DELETE":
            return self._delete_profile(headers, path)
        if path in ("/profiles", "/events") or \
                path.startswith("/profiles/"):
            return _json_response(405, {"error": "method not allowed"})
        return _json_response(404, {"error": f"no route {path}"})

    def _post_profile(self, headers: dict, body: bytes) -> bytes:
        key = self._bearer_key(headers)
        if key is None:
            return _json_response(401, {"error": "bearer key required"})
        if not self._ready:
            return _json_response(503, {"error": "shutting down"})
        try:
            profile, utility = _profile_from_body(
                json.loads(body.decode("utf-8") or "{}"))
        except (ModelError, ValueError, TypeError) as error:
            return _json_response(400, {"error": str(error)})
        try:
            status, payload = self.register(key, profile, utility)
        except ModelError as error:
            return _json_response(400, {"error": str(error)})
        return _json_response(status, payload)

    def _delete_profile(self, headers: dict, path: str) -> bytes:
        key = self._bearer_key(headers)
        if key is None:
            return _json_response(401, {"error": "bearer key required"})
        suffix = path[len("/profiles/"):]
        # [0-9]+ only: int() would also read "+0" as 0 and "1_0" as 10.
        if not (suffix.isascii() and suffix.isdigit()):
            return _json_response(400,
                                  {"error": f"bad profile id {suffix!r}"})
        status, payload = self.cancel(key, int(suffix))
        if status == 204:
            return (b"HTTP/1.1 204 No Content\r\n"
                    b"Connection: close\r\n\r\n")
        return _json_response(status, payload)

    async def _stream_events(self,
                             writer: asyncio.StreamWriter) -> None:
        queue = self.proxy.subscribe()
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n"
                ": connected\n\n")
        try:
            writer.write(head.encode("ascii"))
            await writer.drain()
            while True:
                event = await queue.get()
                frame = (f"event: {event.kind}\n"
                         f"data: {json.dumps(event.payload)}\n\n")
                writer.write(frame.encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self.proxy.unsubscribe(queue)
