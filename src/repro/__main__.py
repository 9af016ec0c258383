"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro run figure3 --scale smoke --jobs 4
    python -m repro run all --scale small --out results/
    python -m repro run figure3 --telemetry results/telemetry.jsonl
    python -m repro run figure5 --estimator is
    python -m repro run rare
    python -m repro run bulk
    python -m repro estimate --data-pb 2 --scheme 1/2 --runs 20 [--no-farm]
    python -m repro sensitivity --scheme 1/2 [--no-farm]
    python -m repro sweep-check --jobs 2
    python -m repro telemetry-summary results/telemetry.jsonl
    python -m repro serve --port 9130 --cache results/forecast-cache.jsonl
    python -m repro forecast '{"racks": 2}' --url http://127.0.0.1:9130

``run`` executes the named experiment(s) at the chosen scale and prints the
regenerated table; ``estimate`` answers the library's core question — the
probability of data loss for one configuration — ``sensitivity`` ranks
which design knob moves it the most, and ``sweep-check`` asserts the sweep
runner's determinism guarantee (parallel aggregates — and merged telemetry
snapshots — bit-identical to a serial run) on a small multi-point sweep.
``run --telemetry PATH`` enables the in-sim metrics subsystem
(:mod:`repro.telemetry`) for every Monte-Carlo sweep in the invocation and
appends one merged JSONL record per sweep point; ``telemetry-summary``
renders such a file for humans.  ``run --estimator
{naive,is,splitting,bulk}`` switches the p_loss figures to a rare-event
estimator or the vectorized bulk engine, ``run rare`` compares the
rare-event estimators at equal budget (:doc:`docs/RARE_EVENTS.md`), and
``run bulk`` benchmarks the bulk engine against the process-pool naive-MC
baseline and asserts its >= 58x throughput claim at smoke scale
(:doc:`docs/BULK_ENGINE.md`).  ``serve`` runs the interactive
reliability-forecast HTTP service (:mod:`repro.service`, layered
estimator cascade with content-addressed caching; docs/SERVICE.md) and
``forecast`` is its one-shot client.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .config import SystemConfig
from .experiments import SCALES, ablations, base
from .experiments import (availability_sweep, bulk_sweep, faults_sweep,
                          figure3, figure4, figure5, figure7, figure8,
                          mttdl_table, perf_table, rare_sweep, redirection,
                          table1, table3, topology_sweep)
from .redundancy.schemes import MIRROR_3, RedundancyScheme
from .reliability import estimate_p_loss, p_loss_window_model
from .service.protocol import DEFAULT_PORT
from .units import GB, PB

#: Experiment registry: name -> callable(scale, base_seed, estimator)
#: -> result(s).  Only the p_loss figures honour ``estimator`` (see
#: ``--estimator``); the rest ignore it.
EXPERIMENTS = {
    "table1": lambda s, seed, est: [table1.run(s, seed)],
    "figure3": lambda s, seed, est: list(figure3.run_both_panels(s, seed)),
    "figure4": lambda s, seed, est: [figure4.run(s, seed)],
    "figure5": lambda s, seed, est: [figure5.run(s, seed, estimator=est)],
    "table3": lambda s, seed, est: [table3.run(s, seed)],
    "figure7": lambda s, seed, est: [figure7.run(s, seed, estimator=est)],
    "figure8": lambda s, seed, est: [
        figure8.run(s, seed, estimator=est),
        figure8.run(s, seed, rate_multiplier=2.0, estimator=est)],
    "redirection": lambda s, seed, est: [redirection.run(s, seed)],
    "mttdl": lambda s, seed, est: [mttdl_table.run(s, seed)],
    "faults": lambda s, seed, est: [faults_sweep.run(s, seed)],
    "perf": lambda s, seed, est: [perf_table.run(s, seed)],
    "rare": lambda s, seed, est: [rare_sweep.run(s, seed)],
    "bulk": lambda s, seed, est: [bulk_sweep.run(s, seed)],
    "topology": lambda s, seed, est: [topology_sweep.run(s, seed)],
    "availability": lambda s, seed, est: [availability_sweep.run(s, seed)],
    "ablations": lambda s, seed, est: [ablations.run_placement(s, seed),
                                       ablations.run_policy(s, seed),
                                       ablations.run_workload(s, seed),
                                       ablations.run_bathtub(s, seed),
                                       ablations.run_mixed_scheme(s, seed)],
}


def cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print(f"scales: {', '.join(SCALES)} (REPRO_SCALE also honoured)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import dataclasses
    import os
    scale = SCALES[args.scale] if args.scale else base.current_scale()
    if args.jobs is not None:
        scale = dataclasses.replace(scale, n_jobs=args.jobs)
    if args.telemetry:
        # One file per invocation: truncate, then let every sweep this
        # process runs append its per-point records (the runner reads
        # REPRO_TELEMETRY_PATH as its default sink).
        tele_path = pathlib.Path(args.telemetry)
        tele_path.parent.mkdir(parents=True, exist_ok=True)
        tele_path.write_text("")
        os.environ["REPRO_TELEMETRY_PATH"] = str(tele_path)
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'",
                  file=sys.stderr)
            return 2
        start = time.time()
        for result in EXPERIMENTS[name](scale, args.seed, args.estimator):
            text = result.render()
            print(text)
            print()
            if out_dir:
                (out_dir / f"{result.experiment}.txt").write_text(
                    text + "\n")
        print(f"[{name}: {time.time() - start:.1f}s]", file=sys.stderr)
    if args.telemetry:
        print(f"[telemetry: {args.telemetry}]", file=sys.stderr)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = SystemConfig(
        total_user_bytes=args.data_pb * PB,
        group_user_bytes=args.group_gb * GB,
        scheme=RedundancyScheme.parse(args.scheme),
        detection_latency=args.detection,
        use_farm=not args.no_farm,
    )
    print(cfg.describe())
    model = p_loss_window_model(cfg)
    print(f"analytic window model: P(loss over 6 yr) = "
          f"{100 * model.p_loss:.3f}%  (mean window "
          f"{model.mean_window:,.0f} s, "
          f"~{model.expected_disk_failures:,.0f} drive failures)")
    if args.runs > 0:
        mc = estimate_p_loss(cfg, n_runs=args.runs, n_jobs=args.jobs)
        print(f"monte carlo ({args.runs} runs): P(loss) = {mc.p_loss}")
    return 0


def cmd_sweep_check(args: argparse.Namespace) -> int:
    """Assert the sweep runner's determinism guarantee end to end.

    Runs a small multi-point sweep twice — serially and with worker
    processes — and requires every aggregate (losses, CI input, window
    sums/max, Welford moments) to be *bit-identical*, and the merged
    per-point telemetry snapshots to be *byte-identical* under canonical
    JSON.  A second, tilted pass repeats the check for *weighted*
    runs: importance-sampled sweeps must fold their likelihood-ratio
    weights through the same reorder buffers, so the weighted sums, ESS,
    and CLT interval must also match bit-for-bit.  A third pass repeats
    the unweighted check on the bulk engine (``engine="bulk"``, no
    telemetry — the engine has no event loop to observe), whose parallel
    path ships *chunks* of runs per task: the reorder buffers must fold
    them back to the serial result bit-for-bit too.
    """
    from .reliability import shutdown_pool, sweep
    from .reliability.rare import DEFAULT_TILT
    from .telemetry import canonical_json
    from .units import TB

    tiny = SystemConfig(total_user_bytes=args.data_tb * TB,
                        group_user_bytes=10 * GB)
    points = {
        "farm": tiny,
        "traditional": tiny.with_(use_farm=False),
        "slow-detect": tiny.with_(detection_latency=600.0),
        # Non-flat topology with the domain cap active: the engine's
        # constraint/deferral paths must also be serial/parallel
        # bit-identical.
        "topology": tiny.with_(racks=4, machines_per_rack=2,
                               max_chunks_per_domain=1),
        # Lazy recovery with a rate-limited repair lane: the held-rebuild
        # queue and unavailability-span accounting must fold through the
        # reorder buffers bit-identically too.  (Excluded from the bulk
        # pass below — recovery_threshold > 1 is bulk-unsupported.)
        "availability": tiny.with_(scheme=MIRROR_3, recovery_threshold=2,
                                   repair_bandwidth_fraction=0.2),
    }
    serial = sweep(points, n_runs=args.runs, base_seed=args.seed,
                   n_jobs=None, sweep_name="sweep-check",
                   telemetry=True, telemetry_path="")
    parallel = sweep(points, n_runs=args.runs, base_seed=args.seed,
                     n_jobs=args.jobs, sweep_name="sweep-check",
                     telemetry=True, telemetry_path="")
    shutdown_pool()

    failures = []
    for label in points:
        s, p = serial[label], parallel[label]
        if canonical_json(s.telemetry) != canonical_json(p.telemetry):
            failures.append(f"{label}.telemetry: serial and parallel "
                            f"merged snapshots are not byte-identical")
        checks = {
            "losses": (s.losses, p.losses),
            "p_loss": (s.p_loss, p.p_loss),
            "groups_lost_total": (s.groups_lost_total,
                                  p.groups_lost_total),
            "mean_window": (s.mean_window, p.mean_window),
            "max_window": (s.max_window, p.max_window),
            "disk_failures_total": (s.disk_failures_total,
                                    p.disk_failures_total),
            "redirections_total": (s.redirections_total,
                                   p.redirections_total),
            "window_moments.m2": (s.aggregate.window_moments.m2,
                                  p.aggregate.window_moments.m2),
            "failure_moments.m2": (s.aggregate.failure_moments.m2,
                                   p.aggregate.failure_moments.m2),
            "unavail_group_seconds": (s.aggregate.unavail_group_seconds,
                                      p.aggregate.unavail_group_seconds),
            "unavail_spans": (s.aggregate.unavail_spans,
                              p.aggregate.unavail_spans),
            "rebuilds_held": (s.aggregate.rebuilds_held,
                              p.aggregate.rebuilds_held),
        }
        for field_name, (a, b) in checks.items():
            if a != b:
                failures.append(f"{label}.{field_name}: {a!r} != {b!r}")
    # Weighted pass: same points under exponential tilting.  The LR
    # weights ride on each RecoveryStats and fold through the identical
    # reorder-buffer path, so every weighted sum is exact-sum mergeable
    # and the parallel result must equal the serial one bit-for-bit.
    serial_w = sweep(points, n_runs=args.runs, base_seed=args.seed,
                     n_jobs=None, sweep_name="sweep-check-tilted",
                     tilt=DEFAULT_TILT)
    parallel_w = sweep(points, n_runs=args.runs, base_seed=args.seed,
                       n_jobs=args.jobs, sweep_name="sweep-check-tilted",
                       tilt=DEFAULT_TILT)
    shutdown_pool()
    for label in points:
        s, p = serial_w[label], parallel_w[label]
        sw, pw = s.aggregate.weighted, p.aggregate.weighted
        checks = {
            "tilted.p_loss": (s.p_loss, p.p_loss),
            "tilted.losses": (s.losses, p.losses),
            "tilted.w_sum": (sw.w_sum.value, pw.w_sum.value),
            "tilted.w_sq_sum": (sw.w_sq_sum.value, pw.w_sq_sum.value),
            "tilted.wx_sum": (sw.wx_sum.value, pw.wx_sum.value),
            "tilted.wx_sq_sum": (sw.wx_sq_sum.value, pw.wx_sq_sum.value),
            "tilted.ess": (sw.ess, pw.ess),
        }
        for field_name, (a, b) in checks.items():
            if a != b:
                failures.append(f"{label}.{field_name}: {a!r} != {b!r}")

    # Bulk pass: the supported points on the vectorized engine.  Its
    # parallel path submits chunked tasks, so this exercises the
    # chunk-expansion side of the reorder buffers (and the capped
    # topology sampler).  Points outside the bulk engine's envelope
    # (lazy recovery) run on the DES passes only.
    from .reliability.bulk import bulk_unsupported_reasons
    bulk_points = {label: cfg for label, cfg in points.items()
                   if not bulk_unsupported_reasons(cfg)}
    serial_b = sweep(bulk_points, n_runs=args.runs, base_seed=args.seed,
                     n_jobs=None, sweep_name="sweep-check-bulk",
                     engine="bulk")
    parallel_b = sweep(bulk_points, n_runs=args.runs, base_seed=args.seed,
                       n_jobs=args.jobs, sweep_name="sweep-check-bulk",
                       engine="bulk")
    shutdown_pool()
    for label in bulk_points:
        s, p = serial_b[label], parallel_b[label]
        checks = {
            "bulk.losses": (s.losses, p.losses),
            "bulk.p_loss": (s.p_loss, p.p_loss),
            "bulk.groups_lost_total": (s.groups_lost_total,
                                       p.groups_lost_total),
            "bulk.mean_window": (s.mean_window, p.mean_window),
            "bulk.max_window": (s.max_window, p.max_window),
            "bulk.disk_failures_total": (s.disk_failures_total,
                                         p.disk_failures_total),
            "bulk.window_moments.m2": (s.aggregate.window_moments.m2,
                                       p.aggregate.window_moments.m2),
        }
        for field_name, (a, b) in checks.items():
            if a != b:
                failures.append(f"{label}.{field_name}: {a!r} != {b!r}")

    if failures:
        print("sweep-check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"sweep-check OK: {len(points)} points x {args.runs} runs, "
          f"serial == parallel (jobs={args.jobs}) incl. telemetry "
          f"snapshots, weighted (tilted) aggregates, and bulk-engine "
          f"chunked folds")
    return 0


def cmd_telemetry_summary(args: argparse.Namespace) -> int:
    """Render a ``repro.telemetry.v1`` JSONL file for humans."""
    from .telemetry import read_jsonl, render_summary
    path = pathlib.Path(args.path)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    records = read_jsonl(path)
    if not records:
        print(f"{path}: no telemetry records", file=sys.stderr)
        return 1
    print(render_summary(records))
    return 0


def _build_service(args: argparse.Namespace):
    """A ForecastService wired from serve's CLI flags."""
    from .service import (ForecastCache, ForecastCascade, ForecastService,
                          GridStore)
    from .reliability.runner import SweepRunner
    cache = ForecastCache(path=args.cache or None)
    grids = GridStore.load_dir(args.grids) if args.grids else GridStore()
    cascade = ForecastCascade(
        cache=cache, grids=grids,
        runner=SweepRunner(n_jobs=args.jobs, telemetry_path=""),
        live_runs=args.runs, target_ci_width=args.target_width)
    return ForecastService(cascade)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the forecast service (or its --smoke self-check)."""
    import asyncio
    if args.smoke:
        return _serve_smoke(args)
    service = _build_service(args)
    port = args.port if args.port is not None else DEFAULT_PORT
    print(f"repro forecast service on http://{args.host}:{port} "
          f"(POST /forecast, GET /forecast/<key>, /healthz, /metrics)")
    try:
        asyncio.run(service.serve_forever(args.host, port))
    except KeyboardInterrupt:
        pass
    return 0


def _serve_smoke(args: argparse.Namespace) -> int:
    """One in-process query per cascade tier on an ephemeral port.

    The check.sh gate: boots the real server (own thread + event loop),
    exercises the analytic, markov, and live tiers plus the cache-hit
    path and /metrics, and fails loudly on any wrong tier or status.
    """
    from .service import run_in_thread, request_forecast
    from .service.protocol import get_forecast
    from urllib.request import urlopen
    handle = run_in_thread(_build_service(args))
    failures: list[str] = []
    try:
        flat_hazard = {"vintage": {"failure_model": {"periods": [
            {"start_months": 0.0, "end_months": None,
             "pct_per_1000h": 0.2}]}}}
        probes = [
            ("analytic", {}),
            ("markov", flat_hazard),
            ("live-bulk", {"racks": 2, "machines_per_rack": 5}),
        ]
        for want_tier, cfg in probes:
            reply = request_forecast(handle.url, {"config": cfg})
            ok = reply["tier"] == want_tier
            print(f"  {want_tier:<9} p_loss={reply['p_loss']:.4g} "
                  f"ci=[{reply['ci_lo']:.4g}, {reply['ci_hi']:.4g}] "
                  f"{'ok' if ok else 'WRONG TIER ' + reply['tier']}")
            if not ok:
                failures.append(f"expected tier {want_tier}, got "
                                f"{reply['tier']}")
            key = reply["key"]
        repeat = get_forecast(handle.url, key)
        if repeat["trials"] < args.runs:
            failures.append("cache miss on repeated live query")
        with urlopen(handle.url + "/metrics") as resp:
            metrics = resp.read().decode("utf-8")
        for needed in ("service_requests_total",
                       "service_request_seconds"):
            if needed not in metrics:
                failures.append(f"/metrics missing {needed}")
    finally:
        handle.stop()
    if failures:
        for f in failures:
            print(f"serve-smoke FAILED: {f}", file=sys.stderr)
        return 1
    print(f"serve-smoke OK: 3 tiers answered, cache hit on repeat, "
          f"/metrics exported")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    """One-shot client: POST a config, print the forecast."""
    import json
    from .service import ForecastError, request_forecast
    raw = args.config
    if raw == "-":
        raw = sys.stdin.read()
    elif not raw.lstrip().startswith("{"):
        raw = pathlib.Path(raw).read_text(encoding="utf-8")
    try:
        config = json.loads(raw)
    except ValueError as exc:
        print(f"config is not JSON: {exc}", file=sys.stderr)
        return 2
    try:
        reply = request_forecast(
            args.url, {"config": config, "confidence": args.confidence})
    except ForecastError as exc:
        print(f"refused ({exc.status}): {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc} (is 'python -m repro "
              f"serve' running?)", file=sys.stderr)
        return 2
    print(json.dumps(reply, indent=2))
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from .reliability.sensitivity import render_tornado, tornado
    cfg = SystemConfig(
        total_user_bytes=args.data_pb * PB,
        group_user_bytes=args.group_gb * GB,
        scheme=RedundancyScheme.parse(args.scheme),
        detection_latency=args.detection,
        use_farm=not args.no_farm,
    )
    print(cfg.describe())
    rows = tornado(cfg)
    print("elasticity of the 6-year loss rate (analytic window model):")
    print(render_tornado(rows))
    worst = rows[0]
    print(f"most influential: {worst.parameter} "
          f"(x1.25 => P(loss) {100 * worst.p_plus:.3f}%, "
          f"x0.75 => {100 * worst.p_minus:.3f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FARM reproduction (HPDC 2004) experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scales")

    run = sub.add_parser("run", help="regenerate a paper table/figure")
    run.add_argument("experiment",
                     help="experiment name or 'all' (see 'list')")
    run.add_argument("--scale", choices=list(SCALES), default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="directory to save rendered tables")
    run.add_argument("--jobs", type=int, default=None,
                     help="Monte-Carlo worker processes (0 = all cores; "
                          "overrides REPRO_JOBS; results are bit-identical "
                          "to a serial run)")
    run.add_argument("--telemetry", metavar="PATH", default=None,
                     help="enable in-sim telemetry and append one merged "
                          "JSONL record per sweep point to PATH "
                          "(sets REPRO_TELEMETRY_PATH; render with "
                          "'telemetry-summary')")
    run.add_argument("--estimator", choices=list(base.ESTIMATORS),
                     default="naive",
                     help="p_loss estimator for figure5/7/8: naive MC, "
                          "importance sampling (is), multilevel "
                          "splitting (see docs/RARE_EVENTS.md), or the "
                          "vectorized bulk engine (docs/BULK_ENGINE.md)")

    est = sub.add_parser("estimate",
                         help="P(data loss) for one configuration")
    est.add_argument("--data-pb", type=float, default=2.0)
    est.add_argument("--group-gb", type=float, default=10.0)
    est.add_argument("--scheme", default="1/2")
    est.add_argument("--detection", type=float, default=30.0,
                     help="failure-detection latency (seconds)")
    est.add_argument("--no-farm", action="store_true",
                     help="use the traditional spare-disk baseline")
    est.add_argument("--runs", type=int, default=0,
                     help="Monte-Carlo runs (0 = analytic only)")
    est.add_argument("--jobs", type=int, default=None,
                     help="processes for Monte-Carlo (0 = all cores)")

    sens = sub.add_parser("sensitivity",
                          help="rank design knobs by influence on P(loss)")
    sens.add_argument("--data-pb", type=float, default=2.0)
    sens.add_argument("--group-gb", type=float, default=10.0)
    sens.add_argument("--scheme", default="1/2")
    sens.add_argument("--detection", type=float, default=30.0)
    sens.add_argument("--no-farm", action="store_true")

    chk = sub.add_parser("sweep-check",
                         help="assert parallel sweep aggregates are "
                              "bit-identical to a serial run")
    chk.add_argument("--jobs", type=int, default=2,
                     help="worker processes for the parallel run")
    chk.add_argument("--runs", type=int, default=6,
                     help="lifetimes per sweep point")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--data-tb", type=float, default=10.0,
                     help="system size for the check sweep (TB)")

    tsum = sub.add_parser("telemetry-summary",
                          help="render a telemetry JSONL file "
                               "(written by 'run --telemetry')")
    tsum.add_argument("path", help="repro.telemetry.v1 JSONL file")

    srv = sub.add_parser("serve",
                         help="run the reliability-forecast HTTP service "
                              "(layered estimator cascade; "
                              "docs/SERVICE.md)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=None,
                     help=f"TCP port (default {DEFAULT_PORT}; --smoke "
                          f"always uses an ephemeral port)")
    srv.add_argument("--cache", default=None, metavar="PATH",
                     help="JSONL journal persisting live Monte-Carlo "
                          "evidence across restarts")
    srv.add_argument("--grids", default=None, metavar="DIR",
                     help="directory of repro.surrogate-grid.v1 JSON "
                          "files for the interpolation tier")
    srv.add_argument("--runs", type=int, default=64,
                     help="lifetimes per live round (first answer and "
                          "each background refinement step)")
    srv.add_argument("--target-width", type=float, default=0.05,
                     help="stop refining a cached CI once narrower "
                          "than this")
    srv.add_argument("--jobs", type=int, default=None,
                     help="worker processes for live estimation "
                          "(0 = all cores)")
    srv.add_argument("--smoke", action="store_true",
                     help="boot on an ephemeral port, answer one query "
                          "per tier, verify provenance and /metrics, "
                          "exit (the check.sh gate)")

    fc = sub.add_parser("forecast",
                        help="one-shot client for a running serve "
                             "instance")
    fc.add_argument("config",
                    help="config as inline JSON, a file path, or '-' "
                         "for stdin (partial dicts take SystemConfig "
                         "defaults; '{}' is the paper base)")
    fc.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}")
    fc.add_argument("--confidence", type=float, default=0.95)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return {"list": cmd_list, "run": cmd_run, "estimate": cmd_estimate,
            "sensitivity": cmd_sensitivity,
            "sweep-check": cmd_sweep_check,
            "telemetry-summary": cmd_telemetry_summary,
            "serve": cmd_serve,
            "forecast": cmd_forecast}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
