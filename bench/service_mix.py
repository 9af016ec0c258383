"""The ``service-mix`` workload: the forecast service under a request mix.

The service runs in its own process (:mod:`bench.server`), wired like
``benchmarks/bench_service.py`` with background refinement off, because
refinement rounds would make latency measure their schedule.  This
process is the load generator: one asyncio thread, at most
:data:`CONNS` connections in flight, bodies generated from the seed
before timing starts.

Phase 1 is an open loop at :data:`RATE` req/s, each request timed from
the moment it was due, so a stall also charges the requests queued
behind it.  Its median and tail are reported but not bounded: queueing
and timer wake-ups make them swing with the shared host's load by more
than any bound worth enforcing, and scaling by the reference kernel
(:mod:`bench.reference`) did not steady them.  Phase 2 is a closed loop
of :data:`CLOSED_CONNS` caller waiting for each reply.  Its completion
rate (the median over :data:`WINDOW_S` windows) and median request time,
scaled by kernel samples taken between its segments, are the bounded
throughput and latency.  Afterwards every answer is checked against an
in-process cascade replaying the same bodies.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import re
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Awaitable, Callable

from repro.config import (PAPER_BASE, SystemConfig, config_digest,
                          config_to_dict)
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.reliability import analytic, markov
from repro.reliability import bulk as bulk_module
from repro.reliability.runner import SweepRunner
from repro.service import (ForecastCache, ForecastCascade, GridStore,
                           build_grid, forecast_to_dict,
                           parse_forecast_request)
from repro.units import GB, TB

from . import reference
from .sims import bulk_layers, patched
from .stats import latency_summary, nearest_rank
from .trace import Tracer, root_wall, self_times

#: Open-loop arrival rate: a third to a half of what one caller waiting
#: for each reply completes on the reference host.
RATE = 300.0

#: Most open-loop requests in flight at once.
CONNS = 2

#: Closed-loop callers.  One: with two, client and server compete for
#: the host's two vCPUs, which added ~4 % throughput but doubled the
#: run-to-run spread (12 % against 5 % over ten rounds).
CLOSED_CONNS = 1

#: Lifetimes per live round (one round per live miss).
LIVE_RUNS = 8

#: A request sent more than this after its due time counts as late.
LATE_S = 1e-3

#: Bodies generated per second of closed loop: three times what one
#: caller completes on the reference host, so the loop never runs dry.
CLOSED_CAP = 3000

#: Shares of the timed seconds given to the open and the closed loop.
OPEN_SHARE, CLOSED_SHARE = 0.5, 0.5

#: The closed loop's throughput is the median over windows this long.
WINDOW_S = 0.5

#: The closed loop runs in segments this long, each followed by
#: :data:`KERNEL_SAMPLES` reference-kernel samples that scale its rate.
SEGMENT_S = 1.0
KERNEL_SAMPLES = 2

#: The live-tier system; racks make both closed forms decline it.
LIVE_CFG = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                        racks=2, machines_per_rack=5)

#: The surrogate grid spans detection latency around this base.
GRID_BASE = LIVE_CFG.with_(group_user_bytes=50 * GB)
GRID_AXES = {"detection_latency": [30.0, 600.0]}

#: Detection latencies of the live configs warmed before timing.
WARM_LATENCIES = (30.0, 60.0, 120.0, 300.0)

#: Request kinds per block of 20: 30/30/20/15/5 percent.
MIX = (("markov", 6), ("analytic", 6), ("surrogate", 4), ("live-hit", 3),
       ("live-miss", 1))

#: The tier each request kind is built to reach.
INTENDED_TIER = {"markov": "markov", "analytic": "analytic",
                 "surrogate": "surrogate", "live-hit": "live-bulk",
                 "live-miss": "live-bulk"}

SERVER_TIERS = ("markov", "analytic", "surrogate", "live-bulk")


def build_cascade(journal: Path) -> ForecastCascade:
    """The cascade both the server and the verifying replay run."""
    grid = build_grid(GRID_BASE, GRID_AXES, n_runs=4, engine="bulk",
                      n_jobs=1, name="bench")
    cascade = ForecastCascade(
        grids=GridStore([grid]),
        runner=SweepRunner(n_jobs=1, bench_path=None, telemetry_path=""),
        live_runs=LIVE_RUNS)
    # Assigned, not passed: the constructor's ``cache or ForecastCache()``
    # swaps an empty (falsy) cache for a journal-less one.
    cascade.cache = ForecastCache(journal)
    return cascade


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Request:
    kind: str
    body: bytes


def _body(cfg: SystemConfig) -> bytes:
    return json.dumps({"config": config_to_dict(cfg)}).encode("utf-8")


def _flat_vintage(pct_per_1000h: float):
    model = BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),))
    return replace(PAPER_BASE.vintage, failure_model=model)


def make_config(kind: str, rng: random.Random) -> SystemConfig:
    if kind == "markov":
        return PAPER_BASE.with_(vintage=_flat_vintage(rng.uniform(0.1, 0.5)),
                                detection_latency=rng.uniform(10.0, 120.0))
    if kind == "analytic":
        return PAPER_BASE.with_(detection_latency=rng.uniform(0.0, 120.0))
    if kind == "surrogate":
        return GRID_BASE.with_(detection_latency=rng.uniform(30.0, 600.0))
    if kind == "live-hit":
        return LIVE_CFG.with_(detection_latency=rng.choice(WARM_LATENCIES))
    # A fresh float latency gives every miss a digest never seen before.
    return LIVE_CFG.with_(detection_latency=rng.uniform(30.0, 600.0))


def make_requests(seed: int, n: int) -> list[Request]:
    """``n`` bodies in shuffled blocks of 20 that keep the mix exact."""
    rng = random.Random(seed)
    block = [kind for kind, count in MIX for _ in range(count)]
    requests: list[Request] = []
    while len(requests) < n:
        rng.shuffle(block)
        requests.extend(Request(kind, _body(make_config(kind, rng)))
                        for kind in block)
    return requests[:n]


def warm_requests() -> list[Request]:
    """Pre-warm the live hits, then touch every closed-form tier once."""
    rng = random.Random(0)
    return ([Request("live-hit", _body(LIVE_CFG.with_(detection_latency=d)))
             for d in WARM_LATENCIES]
            + [Request(kind, _body(make_config(kind, rng)))
               for kind in ("markov", "analytic", "surrogate")])


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #
async def http(host: str, port: int, method: str, path: str,
               body: bytes = b"") -> tuple[int, bytes]:
    """One request on its own connection; status 0 if it broke."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        return 0, b""
    try:
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n"
                     .encode("latin-1") + body)
        await writer.drain()
        data = await reader.read()
        head, _, payload = data.partition(b"\r\n\r\n")
        return int(head.split(None, 2)[1]), payload
    except (OSError, ValueError, IndexError):
        return 0, b""
    finally:
        writer.close()


@dataclass
class Sent:
    index: int
    due: float
    start: float
    end: float
    status: int
    payload: bytes

    @property
    def latency(self) -> float:
        return self.end - self.due if self.status == 200 else math.inf


Send = Callable[[int], Awaitable[tuple[int, bytes]]]


async def open_loop(send: Send, n: int, rate: float, conns: int = CONNS,
                    clock: Callable[[], float] = time.perf_counter,
                    sleep: Callable[[float], Awaitable] = asyncio.sleep
                    ) -> list[Sent]:
    """Request ``i`` is due ``i / rate`` after the start; at most
    ``conns`` are in flight, so a slow answer delays later sends and
    their latency, counted from the due time, shows it."""
    t0 = clock()
    sent: list[Sent] = []
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        while next_index < n:
            i = next_index
            next_index += 1
            due = t0 + i / rate
            if due > clock():
                await sleep(due - clock())
            start = clock()
            status, payload = await send(i)
            sent.append(Sent(i, due, start, clock(), status, payload))

    await asyncio.gather(*(worker() for _ in range(conns)))
    sent.sort(key=lambda s: s.index)
    return sent


async def closed_loop(send: Send, seconds: float, limit: int,
                      conns: int = CLOSED_CONNS,
                      clock: Callable[[], float] = time.perf_counter
                      ) -> list[Sent]:
    """Each caller sends its next request when its last one returns;
    none starts after ``seconds``."""
    t0 = clock()
    sent: list[Sent] = []
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        while clock() - t0 < seconds and next_index < limit:
            i = next_index
            next_index += 1
            start = clock()
            status, payload = await send(i)
            sent.append(Sent(i, start, start, clock(), status, payload))

    await asyncio.gather(*(worker() for _ in range(conns)))
    sent.sort(key=lambda s: s.index)
    return sent


def window_rates(ends: list[float], start: float, seconds: float,
                 window: float) -> list[float]:
    """Completions per second in each whole ``window`` after ``start``."""
    counts = [0] * int(seconds // window)
    for t in ends:
        i = int((t - start) // window)
        if 0 <= i < len(counts):
            counts[i] += 1
    return [c / window for c in counts]


def server_seconds(metrics_text: str) -> dict[str, tuple[float, int]]:
    """Per-tier ``service_request_seconds`` (sum, count) from /metrics."""
    found: dict[str, dict[str, float]] = {}
    for m in re.finditer(r'^service_request_seconds_(sum|count)'
                         r'\{tier="([^"]+)"\} (\S+)$', metrics_text,
                         re.MULTILINE):
        found.setdefault(m.group(2), {})[m.group(1)] = float(m.group(3))
    return {tier: (v.get("sum", 0.0), int(v.get("count", 0)))
            for tier, v in found.items()}


# --------------------------------------------------------------------- #
# Replay: the same bodies through an in-process cascade
# --------------------------------------------------------------------- #
def _no_span(name: str, trace: str | None = None):
    return nullcontext()


async def replay(cascade: ForecastCascade, requests: list[Request],
                 tracer: Tracer | None = None) -> list[tuple[dict, str]]:
    """(answer, classified tier) per request, one span per layer call."""
    span = tracer.span if tracer is not None else _no_span
    answers = []
    for i, req in enumerate(requests):
        with span("service.request", trace=str(i)):
            with span("service.protocol.parse"):
                cfg, confidence = parse_forecast_request(req.body)
            with span("config.digest"):
                config_digest(cfg)
            with span("service.cascade.classify"):
                tier, _ = cascade.classify(cfg)
            with span(f"service.cascade.forecast.{req.kind}"):
                forecast = await cascade.forecast(cfg, confidence)
            with span("service.protocol.serialize"):
                doc = forecast_to_dict(forecast)
                json.dumps(doc)
        answers.append((doc, tier))
    return answers


def answer_ok(req: Request, sent: Sent, expected: dict, tier: str) -> bool:
    """The server's answer equals the replay's, on the intended tier,
    and the closed forms match their functions exactly."""
    if sent.status != 200:
        return False
    try:
        doc = json.loads(sent.payload)
    except ValueError:
        return False
    if doc != expected or tier != INTENDED_TIER[req.kind] \
            or doc["tier"] != tier:
        return False
    if tier in ("markov", "analytic"):
        cfg, _ = parse_forecast_request(req.body)
        fn = markov.p_loss_config if tier == "markov" else analytic.p_loss
        return doc["p_loss"] == fn(cfg)
    return True


class ServiceMix:
    def __init__(self, seed: int, seconds: float, tmp: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.journal = tmp / "server-journal.jsonl"
        self.server: subprocess.Popen | None = None
        self.port = 0

    def setup(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "bench.server", str(self.journal)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.strip().isdigit():
            raise RuntimeError(f"forecast server did not start: {line!r}")
        self.port = int(line)
        statuses = asyncio.run(self._send_all(warm_requests()))
        if statuses != [200] * len(statuses):
            raise RuntimeError(f"warm-up requests failed: {statuses}")

    def close(self) -> None:
        if self.server is None:
            return
        self.server.stdin.close()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    async def _send_all(self, requests: list[Request]) -> list[int]:
        return [(await self._post(r))[0] for r in requests]

    def _post(self, req: Request) -> Awaitable[tuple[int, bytes]]:
        return http("127.0.0.1", self.port, "POST", "/forecast", req.body)

    # ------------------------------------------------------------------ #
    def measure(self) -> dict:
        t_open = OPEN_SHARE * self.seconds
        t_closed = CLOSED_SHARE * self.seconds
        n_open = math.ceil(RATE * t_open)
        requests = make_requests(self.seed,
                                 n_open + math.ceil(CLOSED_CAP * t_closed))
        closed_reqs = requests[n_open:]
        journal0 = file_bytes(self.journal)
        n_segments = max(1, round(t_closed / SEGMENT_S))
        segment_s = t_closed / n_segments
        segments: list[list[Sent]] = []
        kernel_s: list[float] = []

        async def run() -> list[Sent]:
            first = await open_loop(lambda i: self._post(requests[i]),
                                    n_open, RATE)
            offset = 0
            for _ in range(n_segments):
                if offset == len(closed_reqs):
                    break
                segment = await closed_loop(
                    lambda i, o=offset: self._post(closed_reqs[o + i]),
                    segment_s, len(closed_reqs) - offset)
                segments.append(segment)
                offset += len(segment)
                kernel_s.extend(reference.kernel_seconds()
                                for _ in range(KERNEL_SAMPLES))
            return first

        first = asyncio.run(run())
        growth = file_bytes(self.journal) - journal0
        second = [s for segment in segments for s in segment]
        sent = first + second
        checked = requests[:n_open] + closed_reqs[:len(second)]
        ok, checks = self._verify(checked, sent, growth, None)
        lat = latency_summary([s.latency for s in first])
        rates: list[float] = []
        waits: list[float] = []
        good = iter(ok[n_open:])
        for segment in segments:
            done = [s for s in segment if next(good)]
            waits += [s.latency for s in done]
            rates += window_rates([s.end for s in done], segment[0].start,
                                  segment_s, min(WINDOW_S, segment_s))
        rate, wait = statistics.median(rates), statistics.median(waits)
        factor = reference.scale(kernel_s)
        return {
            "attempted": len(sent), "failed": ok.count(False),
            "checks": checks,
            "metrics": {
                "throughput_per_s": {"value": rate / factor, "raw": rate,
                                     "n": len(rates)},
                "latency_ms": {"value": 1e3 * wait * factor,
                               "raw": 1e3 * wait, "n": len(waits)},
            },
            "detail": {"open_loop_rate": RATE, "open_loop_s": t_open,
                       "closed_loop_s": t_closed,
                       "open_loop_p50_ms": lat["p50_ms"],
                       f"open_loop_p{lat['tail_pct']:g}_ms": lat["tail_ms"],
                       "journal_bytes": growth, **lag_summary(first)},
        }

    def trace(self) -> dict:
        """Untraced then traced open loops (client spans), a /metrics
        scrape, and a traced in-process replay of every body sent."""
        third = self.seconds / 3
        n = math.ceil(RATE * third)
        requests = make_requests(self.seed, 2 * n)
        tracer = Tracer()
        journal0 = file_bytes(self.journal)

        async def traced_send(i: int) -> tuple[int, bytes]:
            start = tracer.clock()
            result = await self._post(requests[n + i])
            tracer.add("loadgen.request", start, tracer.clock(),
                       trace=str(n + i))
            return result

        async def run() -> tuple[list[Sent], list[Sent], str]:
            plain = await open_loop(lambda i: self._post(requests[i]), n,
                                    RATE)
            traced = await open_loop(traced_send, n, RATE)
            _, text = await http("127.0.0.1", self.port, "GET", "/metrics")
            return plain, traced, text.decode("utf-8", "replace")

        plain, traced, metrics_text = asyncio.run(run())
        growth = file_bytes(self.journal) - journal0
        # Concurrent client spans overlap; the self-time table covers the
        # sequential replay that follows them.
        first_replay_span = len(tracer.spans)
        batches: list[float] = []
        lifetimes = 0

        def timed_batch(config, seeds):
            nonlocal lifetimes
            with tracer.span("reliability.bulk.run_bulk_batch") as s:
                stats = run_bulk_batch(config, seeds)
            batches.append(s.duration)
            lifetimes += len(seeds)
            return stats

        run_bulk_batch = bulk_module.run_bulk_batch
        ok, checks = self._verify(
            requests, plain + traced, growth, tracer,
            patched(bulk_module, "run_bulk_batch", timed_batch))
        replay_spans = tracer.spans[first_replay_span:]
        rows = self_times(replay_spans)
        p50 = {name: latency_summary([s.latency for s in sent])["p50_ms"]
               for name, sent in (("plain", plain), ("traced", traced))}
        layers = {"service.cache.journal_bytes": growth,
                  **bulk_layers(batches, lifetimes),
                  **lag_summary(traced)}
        spans_to_metrics = [
            ("service.protocol.parse", "service.protocol.parse_us"),
            ("config.digest", "config.digest_us"),
            ("service.cascade.classify", "service.cascade.classify_us"),
            ("service.protocol.serialize", "service.protocol.serialize_us"),
            *((f"service.cascade.forecast.{kind}",
               f"service.cascade.forecast_us.{kind}") for kind, _ in MIX)]
        for span_name, metric in spans_to_metrics:
            row = rows.get(span_name)
            layers[metric] = 1e6 * row["total_s"] / row["count"] \
                if row else 0.0
        means = server_seconds(metrics_text)
        for tier in SERVER_TIERS:
            total, count = means.get(tier, (0.0, 0))
            layers[f"service.app.server_ms_mean.{tier}"] = \
                1e3 * total / count if count else 0.0
        total = sum(means.get(t, (0.0, 0))[0] for t in SERVER_TIERS)
        count = sum(means.get(t, (0.0, 0))[1] for t in SERVER_TIERS)
        layers["service.http_overhead_ms"] = \
            p50["traced"] - (1e3 * total / count if count else 0.0)
        layers["trace.overhead_frac"] = p50["traced"] / p50["plain"] - 1.0
        return {
            "attempted": 2 * n, "failed": ok.count(False), "checks": checks,
            "layers": layers, "rows": rows, "wall_s": root_wall(replay_spans),
            "spans": tracer.to_list(),
            "detail": {"untraced_latency_ms": p50["plain"],
                       "traced_latency_ms": p50["traced"]},
        }

    def _verify(self, requests: list[Request], sent: list[Sent],
                growth: int, tracer: Tracer | None = None,
                hooks=nullcontext()) -> tuple[list[bool], dict[str, bool]]:
        """Replay ``requests`` in-process (traced, under ``hooks``, when a
        tracer is given) and check each of the server's answers."""
        journal = self.tmp / "replay-journal.jsonl"
        cascade = build_cascade(journal)
        asyncio.run(replay(cascade, warm_requests()))

        async def run() -> list[tuple[dict, str]]:
            root = tracer.span("service.replay") if tracer else nullcontext()
            with hooks, root:
                return await replay(cascade, requests, tracer)

        journal0 = file_bytes(journal)
        answers = asyncio.run(run())
        replay_growth = file_bytes(journal) - journal0
        ok = [answer_ok(req, s, doc, tier)
              for req, s, (doc, tier) in zip(requests, sent, answers)]
        return ok, {
            "every answer equals the in-process replay, on its intended "
            "tier; closed forms equal their functions": all(ok),
            "journal growth equals the replay's": growth == replay_growth,
        }


def file_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def lag_summary(sent: list[Sent]) -> dict:
    """How late the open-loop generator sent its requests."""
    lags = sorted(s.start - s.due for s in sent)
    return {"loadgen.lag_ms_p99": 1e3 * nearest_rank(lags, 99.0),
            "loadgen.late_frac": sum(1 for x in lags if x > LATE_S)
            / len(lags)}
