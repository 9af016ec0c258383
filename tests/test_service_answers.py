"""Bit-identity pins for the forecast service's answers.

``fixtures/service_answers.json`` holds, for each of 40 request bodies,
the :func:`~repro.service.forecast_to_dict` answer (or the refusal
message) of one cascade that sees them in order, with every float
written as ``float.hex``.  The bodies reach the markov, analytic,
surrogate and live-bulk tiers and the feasibility rail; they repeat
rate schedules and vary horizons, confidences and the form a config
is posted in (partial dict, canonical dict, integer fields), and the
live ones mix misses with cache hits.

A changed hazard, interval, digest or routing decision fails here.
Re-pin only for an intentional behaviour change, and say so in the
commit message: ``PYTHONPATH=src python -m tests.test_service_answers``
rewrites the fixture.
"""

import asyncio
import json
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.config import PAPER_BASE, SystemConfig, config_to_dict
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.redundancy import ECC_4_6, MIRROR_3
from repro.reliability.runner import SweepRunner
from repro.service import (ForecastCache, ForecastCascade, GridStore,
                           InfeasibleConfig, build_grid,
                           forecast_to_dict, parse_forecast_request,
                           repair_utilization)
from repro.units import GB, MB, TB, YEAR

FIXTURE = Path(__file__).parent / "fixtures" / "service_answers.json"


def flat_vintage(pct_per_1000h: float):
    model = BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),))
    return replace(PAPER_BASE.vintage, failure_model=model)


#: Live-bulk configs: racks put them past both closed forms; a flat
#: 10 %/1000 h hazard at 2 MB/s makes some lifetimes lose data.
LIVE = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                    racks=2, machines_per_rack=5,
                    vintage=flat_vintage(10.0),
                    recovery_bandwidth_bps=2 * MB)

#: The surrogate grid spans detection latency around this base.
GRID_BASE = LIVE.with_(group_user_bytes=50 * GB)
GRID_AXES = {"detection_latency": [30.0, 3600.0, 86400.0]}


def _canonical(cfg: SystemConfig, **request: Any) -> dict:
    return {"config": config_to_dict(cfg), **request}


def request_bodies() -> list[dict]:
    """The 40 request bodies, in the order the cascade sees them."""
    flat = {"periods": [{"start_months": 0, "end_months": None,
                         "pct_per_1000h": 0.4}]}
    markov = [
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.2))),
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.35),
                                    detection_latency=60.0)),
        # The first schedule again, at another latency and horizon.
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.2),
                                    detection_latency=90.0)),
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.2),
                                    duration=3 * YEAR)),
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.5),
                                    scheme=ECC_4_6)),
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.0))),
        _canonical(PAPER_BASE.with_(
            vintage=flat_vintage(0.2).with_rate_multiplier(2.0))),
        _canonical(PAPER_BASE.with_(vintage=flat_vintage(0.3)),
                   confidence=0.99),
        {"config": {"vintage": {"failure_model": flat}}},
        {"config": {"vintage": {"failure_model": flat},
                    "detection_latency": 15}},
    ]
    analytic = [
        {"config": {}},
        {"config": {"detection_latency": 600.0}},
        _canonical(PAPER_BASE.with_(detection_latency=45.5)),
        _canonical(PAPER_BASE.with_(use_farm=False,
                                    vintage=flat_vintage(0.2))),
        _canonical(PAPER_BASE.with_(use_farm=False)),
        {"config": {"vintage": {"failure_model": {"rate_multiplier": 2}}}},
        _canonical(PAPER_BASE.with_(duration=3 * YEAR)),
        _canonical(PAPER_BASE.with_(group_user_bytes=50 * GB)),
        {"config": {"scheme": "1/3"}, "confidence": 0.9},
        _canonical(PAPER_BASE.with_(scheme=MIRROR_3,
                                    total_user_bytes=1e15)),
        {"config": {}, "confidence": 0.99},
    ]
    surrogate = [
        _canonical(GRID_BASE.with_(detection_latency=latency))
        for latency in (30.0, 100.0, 1000.0, 3600.0, 20000.0, 86400.0)
    ] + [_canonical(GRID_BASE.with_(detection_latency=500.0),
                    confidence=0.99)]
    live = [
        _canonical(LIVE),                                       # miss
        _canonical(LIVE.with_(detection_latency=600.0)),        # miss
        _canonical(LIVE),                                       # hit
        _canonical(LIVE.with_(detection_latency=3600.0)),       # miss
        _canonical(LIVE.with_(detection_latency=600.0),         # hit
                   confidence=0.99),
        _canonical(LIVE.with_(duration=3 * YEAR)),              # miss
        _canonical(LIVE.with_(use_farm=False)),                 # miss
        # Elerath rates, outside the window model's envelope.
        {"config": {"total_user_bytes": 10 * TB,
                    "detection_latency": 1e8}},                 # miss
        {"config": {"total_user_bytes": 10 * TB,
                    "detection_latency": 1e8}},                 # hit
        {"config": {"total_user_bytes": 1e13, "racks": 2,
                    "machines_per_rack": 5}},                   # miss
    ]
    infeasible = PAPER_BASE.with_(
        vintage=PAPER_BASE.vintage.with_rate_multiplier(
            2.0 / repair_utilization(PAPER_BASE)))
    refused = [_canonical(infeasible), _canonical(
        LIVE.with_(vintage=flat_vintage(2000.0),
                   recovery_bandwidth_bps=1 * MB))]
    # Interleave the kinds, so every tier runs after every other.
    kinds = [markov, analytic, surrogate, live, refused]
    bodies: list[dict] = []
    while any(kinds):
        for kind in kinds:
            if kind:
                bodies.append(kind.pop(0))
    return bodies


def build_cascade() -> ForecastCascade:
    """A journal-less cascade with one surrogate grid, 16 runs a round."""
    grid = build_grid(GRID_BASE, GRID_AXES, n_runs=16, engine="bulk",
                      n_jobs=1, name="pin")
    return ForecastCascade(
        cache=ForecastCache(), grids=GridStore([grid]),
        runner=SweepRunner(n_jobs=1, telemetry_path=""), live_runs=16)


def hexed(value: Any) -> Any:
    """``value`` with every float written as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [hexed(v) for v in value]
    return value


def answer_all(bodies: list[dict]) -> list[dict]:
    """Each body's hexed answer, or its refusal, from one cascade."""
    cascade = build_cascade()

    async def run() -> list[dict]:
        answers = []
        for body in bodies:
            config, confidence = parse_forecast_request(
                json.dumps(body).encode("utf-8"))
            try:
                forecast = await cascade.forecast(config, confidence)
            except InfeasibleConfig as exc:
                answers.append({"refused": str(exc)})
                continue
            answers.append(hexed(forecast_to_dict(forecast)))
        return answers

    return asyncio.run(run())


def test_every_answer_matches_its_pin():
    pins = json.loads(FIXTURE.read_text())
    bodies = [pin["body"] for pin in pins]
    assert len(bodies) == 40
    answers = answer_all(bodies)
    for pin, answer in zip(pins, answers):
        assert answer == pin["answer"], pin["body"]


def test_pins_reach_every_tier():
    tiers = [pin["answer"].get("tier", "refused")
             for pin in json.loads(FIXTURE.read_text())]
    assert {t: tiers.count(t) for t in set(tiers)} == {
        "markov": 10, "analytic": 11, "surrogate": 7, "live-bulk": 10,
        "refused": 2}


if __name__ == "__main__":
    bodies = request_bodies()
    pins = [{"body": body, "answer": answer}
            for body, answer in zip(bodies, answer_all(bodies))]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(pin) for pin in pins)
                       + "\n]\n")
    print(f"wrote {len(pins)} pins to {FIXTURE}")
