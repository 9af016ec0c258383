"""One workload in its own process.

Usage: ``python -m bench.child NAME --seed N --seconds S --tmp DIR
[--trace] [--quick] [--setup-only]``.  Prints ``READY`` when set-up is
done (the parent times set-up up to that line), then, unless
``--setup-only``, the workload's result as the last line, in JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
from pathlib import Path

#: Seed-0 invariants of the full-size sweep workloads.
PINS_PATH = Path(__file__).with_name("pins.json")

#: Largest |sum of self times / traced wall - 1| the trace may show.
COVERAGE_TOLERANCE = 0.05


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def make_workload(args: argparse.Namespace):
    if args.name == "service-mix":
        from .service_mix import ServiceMix
        return ServiceMix(args.seed, args.seconds, args.tmp)
    from .sims import SweepWorkload
    pins = None
    if args.seed == 0 and not args.quick:
        pins = json.loads(PINS_PATH.read_text())[args.name]
    return SweepWorkload(args.name, args.seed, args.seconds, args.quick,
                         pins)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = workload.trace() if args.trace else workload.measure()
    finally:
        workload.close()
    if args.trace:
        spans = result.pop("spans")
        (args.tmp / "spans.json").write_text(json.dumps(spans))
        coverage = (sum(r["self_s"] for r in result["rows"].values())
                    / result["wall_s"])
        result["layers"]["trace.self_coverage"] = coverage
        result["checks"]["per-layer self times sum to the traced wall"] = \
            abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    else:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
