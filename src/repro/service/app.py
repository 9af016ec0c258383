"""The asyncio HTTP server wrapping the forecast cascade.

Pure stdlib: ``asyncio.start_server`` plus a hand-rolled HTTP/1.1
request parser (close-delimited responses, one request per connection —
the clients this serves are curl, urllib, and the bundled one-shot
client, none of which need keep-alive).  Routes:

* ``POST /forecast``        — answer a config query through the cascade;
* ``GET  /forecast/<key>``  — re-read a cached live answer by digest;
* ``GET  /healthz``         — liveness;
* ``GET  /metrics``         — Prometheus text (request counters,
  per-tier latency histograms, client disconnects and the evidence
  journal's skipped-line gauge via the repro telemetry exporter).

Between requests a background task drains the refinement queue: the
widest cached confidence interval gets one more Monte-Carlo round, so
answers tighten over time without any request ever blocking on more
than its own first round.  Estimation runs on a worker thread
(:func:`repro.reliability.montecarlo.estimate_p_loss_async`), so the
event loop keeps serving while lifetimes execute.

Wall-clock reads here are deliberate and allowlisted (RPR011,
``repro.analysis.determinism.WALL_CLOCK_ALLOWLIST``): request latency
and queue pacing are *host* quantities — no simulation clock exists at
this layer, and simulated time never reaches these calls.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..telemetry.export import to_prometheus
from ..telemetry.metrics import MetricRegistry, log_bounds
from .cascade import ForecastCascade, InfeasibleConfig
from .protocol import (FORECAST_SCHEMA, ForecastError, MAX_BODY_BYTES,
                       forecast_to_dict, parse_forecast_request)

#: Latency histogram buckets: 100 µs .. 100 s, four per decade.
_LATENCY_BOUNDS = log_bounds(1e-4, 100.0)

#: Idle sleep between refinement-queue polls when the queue is empty.
_REFINE_IDLE_S = 0.05

#: Maximum size of the request head (request line + headers).
_MAX_HEAD_BYTES = 16 * 1024

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                422: "Unprocessable Entity",
                500: "Internal Server Error"}


class ForecastService:
    """One cascade, one metric registry, one refinement loop."""

    def __init__(self, cascade: ForecastCascade | None = None,
                 registry: MetricRegistry | None = None,
                 refine: bool = True) -> None:
        self.cascade = cascade or ForecastCascade()
        self.registry = MetricRegistry() if registry is None else registry
        self.refine_enabled = refine
        self._server: asyncio.base_events.Server | None = None
        self._refine_task: asyncio.Task | None = None
        self._refined = asyncio.Event()
        self._disconnects = self.registry.counter(
            "service_client_disconnects_total",
            help="clients gone before their request was read or their "
                 "response written")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        if self.refine_enabled:
            self._refine_task = asyncio.create_task(self._refine_loop())
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def stop(self) -> None:
        if self._refine_task is not None:
            self._refine_task.cancel()
            # The CancelledError is the cancellation just requested.
            try:
                await self._refine_task
            except asyncio.CancelledError:  # repro: noqa RPR009
                pass
            self._refine_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self, host: str, port: int) -> None:
        await self.start(host, port)
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def wait_refined(self, timeout_s: float = 30.0) -> bool:
        """Block until one refinement round lands (tests/smoke)."""
        self._refined.clear()
        try:
            await asyncio.wait_for(self._refined.wait(), timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    # ------------------------------------------------------------------ #
    # Background refinement
    # ------------------------------------------------------------------ #
    async def _refine_loop(self) -> None:
        depth_gauge = self.registry.gauge(
            "service_refine_queue_depth",
            help="refinable cached entries (CI wider than target)")
        rounds = self.registry.counter(
            "service_refine_rounds_total",
            help="background refinement rounds completed")
        while True:
            queue = self.cascade.refinement_queue()
            depth_gauge.set(float(len(queue)))
            if not queue:
                await asyncio.sleep(_REFINE_IDLE_S)
                continue
            await self.cascade.refine_once()
            rounds.inc()
            self._refined.set()
            # Yield so queued requests interleave between rounds.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        tier = "-"
        path = "-"
        try:
            method, path, body = await self._read_request(reader)
            status, payload, tier = await self._route(method, path, body)
        except ForecastError as exc:
            status, payload = exc.status, {"error": exc.message}
        except (asyncio.IncompleteReadError, ConnectionError):
            self._disconnects.inc()
            writer.close()
            return
        except Exception as exc:   # a crashed estimator is a 500, not EOF
            status, payload = 500, {"error": f"{type(exc).__name__}: "
                                             f"{exc}"}
        self._observe(path, status, tier, time.perf_counter() - t0)
        await self._write_response(writer, status, payload)

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEAD_BYTES:
            raise ForecastError(400, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ForecastError(400, f"malformed request line "
                                     f"{lines[0]!r}")
        method, path, _version = parts
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ForecastError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise ForecastError(413, f"body exceeds {MAX_BODY_BYTES} "
                                     f"bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: Any) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            ctype = "application/json"
        text = _STATUS_TEXT.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {text}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            self._disconnects.inc()
        finally:
            writer.close()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _route(self, method: str, path: str, body: bytes
                     ) -> tuple[int, Any, str]:
        """Dispatch; returns (status, payload, tier-for-metrics)."""
        if path == "/healthz":
            if method != "GET":
                raise ForecastError(405, "healthz is GET-only")
            return 200, {"status": "ok"}, "-"
        if path == "/metrics":
            if method != "GET":
                raise ForecastError(405, "metrics is GET-only")
            self.registry.gauge(
                "service_cache_skipped_lines",
                help="evidence journal lines that yielded no record at "
                     "the last full read").set(
                float(self.cascade.cache.skipped_lines))
            return 200, to_prometheus(self.registry.snapshot()), "-"
        if path == "/forecast":
            if method != "POST":
                raise ForecastError(405, "forecast queries are POSTed")
            return await self._post_forecast(body)
        if path.startswith("/forecast/"):
            if method != "GET":
                raise ForecastError(405, "forecast lookup is GET-only")
            return self._get_forecast(path.removeprefix("/forecast/"))
        raise ForecastError(404, f"no route {path!r}")

    async def _post_forecast(self, body: bytes) -> tuple[int, Any, str]:
        config, confidence = parse_forecast_request(body)
        try:
            forecast = await self.cascade.forecast(config, confidence)
        except InfeasibleConfig as exc:
            raise ForecastError(422, str(exc))
        return 200, forecast_to_dict(forecast), forecast.tier

    def _get_forecast(self, key: str) -> tuple[int, Any, str]:
        entry = self.cascade.cache.get(key)
        cfg = self.cascade._configs.get(key)
        if entry is None or cfg is None:
            raise ForecastError(
                404, f"no cached live forecast under key {key!r} "
                     f"(closed-form tiers are stateless; re-POST the "
                     f"config)")
        forecast = self.cascade._from_entry(
            entry, cfg, "cached live evidence", 0.95)
        return 200, forecast_to_dict(forecast), forecast.tier

    # ------------------------------------------------------------------ #
    def _observe(self, path: str, status: int, tier: str,
                 seconds: float) -> None:
        route = path.split("?")[0]
        if route.startswith("/forecast/"):
            route = "/forecast/<key>"
        self.registry.counter(
            "service_requests_total", help="HTTP requests served",
            labels={"route": route, "status": str(status)}).inc()
        self.registry.histogram(
            "service_request_seconds", _LATENCY_BOUNDS,
            help="request latency by answering tier",
            labels={"tier": tier}).observe(seconds)


# --------------------------------------------------------------------- #
# Threaded harness (tests, the --smoke gate, notebooks)
# --------------------------------------------------------------------- #
@dataclass
class ServiceHandle:
    """A running service on its own thread + event loop."""

    service: ForecastService
    host: str
    port: int
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def wait_refined(self, timeout_s: float = 30.0) -> bool:
        """Block the *calling* thread until a refinement round lands."""
        fut = asyncio.run_coroutine_threadsafe(
            self.service.wait_refined(timeout_s), self.loop)
        return fut.result(timeout_s + 5.0)

    def stop(self) -> None:
        fut = asyncio.run_coroutine_threadsafe(self.service.stop(),
                                               self.loop)
        fut.result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.loop.close()


def run_in_thread(service: ForecastService | None = None,
                  host: str = "127.0.0.1",
                  port: int = 0) -> ServiceHandle:
    """Start a service on a daemon thread; returns once it is bound."""
    service = service or ForecastService()
    loop = asyncio.new_event_loop()
    bound: dict[str, Any] = {}
    ready = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            bound["addr"] = await service.start(host, port)

        loop.run_until_complete(_start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-forecast-service",
                              daemon=True)
    thread.start()
    if not ready.wait(30.0):
        raise RuntimeError("forecast service failed to start in 30 s")
    bhost, bport = bound["addr"]
    return ServiceHandle(service=service, host=bhost, port=bport,
                         loop=loop, thread=thread)
