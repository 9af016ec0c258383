"""Entry point: ``python -m bench`` runs workloads, ``python -m bench
compare`` compares two run sets.  See ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from .trace import render_table

#: The checkout the benchmark measures (this package's parent).
ROOT = Path(__file__).resolve().parent.parent

#: Schema of the ``--out`` run-set document.
RUNS_SCHEMA = "repro-bench-runs.v1"

#: Fresh-process set-ups per workload; the median is ``setup_s``.
SETUPS = 3

#: A workload process still running after this long is killed.
CHILD_TIMEOUT_S = 170.0

#: ``--seconds`` default under ``--quick``.
QUICK_SECONDS = 1.0


class WorkloadError(RuntimeError):
    pass


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def host_fingerprint() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def child_env(tmp: Path) -> dict:
    """Children import ``repro`` from this checkout and write no perf
    history, telemetry or temporary file outside ``tmp``."""
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY_PATH", None)
    env["REPRO_BENCH_PATH"] = ""
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd: list[str], env: dict) -> tuple[float, str]:
    """Start a workload process; returns (seconds to ``READY``, stdout
    after it).  Raises :class:`WorkloadError` if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkloadError(f"{' '.join(cmd[2:4])} exited with {code}")
    return setup_s, rest


def run_workload(name: str, args: argparse.Namespace, tmp: Path) -> dict:
    """Set-up probes, then the measuring process, each fresh."""
    probes = 0 if args.trace else SETUPS - 1
    setups = []
    for i in range(probes + 1):
        child_tmp = tmp / f"{name}-{i}"
        child_tmp.mkdir()
        cmd = [sys.executable, "-m", "bench.child", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--tmp", str(child_tmp)]
        cmd += ["--trace"] * args.trace + ["--quick"] * args.quick
        cmd += ["--setup-only"] * (i < probes)
        setup_s, out = run_child(cmd, child_env(tmp))
        setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])
    if args.trace:
        result["spans"] = json.loads((child_tmp / "spans.json").read_text())
    else:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "samples": setups}
    result["correct"] = (all(result["checks"].values())
                         and result["failed"] == 0)
    if not result["correct"]:
        result["failed"] = result["attempted"]
    return result


def contract_metrics(result: dict, spec: dict, trace: bool) -> dict:
    """The workload's metrics named and ordered as in BENCHMARK.json."""
    if trace:
        unknown = set(result["layers"]) - {m["name"]
                                           for m in spec["per_layer"]}
        if unknown:
            raise WorkloadError(f"layer metrics missing from "
                                f"BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload never enters did no work: zero.
        return {m["name"]: {"value": result["layers"].get(m["name"], 0),
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in spec["end_to_end"]}


def report(name: str, result: dict, metrics: dict, trace: bool) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if trace:
        print(render_table(result["rows"], result["wall_s"]))
    for metric, m in metrics.items():
        extra = {k: v for k, v in
                 result.get("metrics", {}).get(metric, {}).items()
                 if k != "value"}
        print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']:<6} "
              f"{json.dumps(extra) if extra else ''}")
    for check, ok in result["checks"].items():
        print(f"  [{'ok' if ok else 'FAILED'}] {check}")
    for key, value in result.get("detail", {}).items():
        if not isinstance(value, dict):
            print(f"  {key}: {value}")


def append_run(path: Path, run: dict) -> None:
    doc = (json.loads(path.read_text()) if path.exists()
           else {"schema": RUNS_SCHEMA, "runs": []})
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def run_main(argv: list[str], spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"timed seconds per workload (default "
                             f"{spec['run_seconds']}, {QUICK_SECONDS:g} "
                             f"with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, to check the benchmark itself")
    parser.add_argument("--out", type=Path,
                        help="append this run to a run-set JSON file")
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, write the spans here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: {ROOT} holds no src/repro to measure",
              file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    results: dict[str, dict] = {}
    metrics: dict[str, dict] = {}
    try:
        for name in [args.workload] if args.workload else names:
            results[name] = run_workload(name, args, tmp)
            metrics[name] = contract_metrics(results[name], spec,
                                             bool(args.trace))
            report(name, results[name], metrics[name], bool(args.trace))
    except WorkloadError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    spans = {name: r.pop("spans") for name, r in results.items()
             if "spans" in r}
    if args.spans is not None:
        args.spans.write_text(json.dumps(spans) + "\n")
    if args.out is not None:
        append_run(args.out, {"seed": args.seed, "seconds": args.seconds,
                              "quick": args.quick, "trace": args.trace,
                              "host": host_fingerprint(),
                              "workloads": results})
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[args.workload] if args.workload else metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        from . import compare
        return compare.main(argv[1:], spec)
    return run_main(argv, spec)
