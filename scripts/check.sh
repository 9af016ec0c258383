#!/usr/bin/env bash
# Repository quality gate: invariant linter, style/type checkers, tier-1
# tests.  Exits non-zero if any enabled check fails.
#
# ruff and mypy are optional — the offline reproduction image may not ship
# them; when absent they are reported as skipped, not failed.  The
# invariant linter (repro.analysis) and pytest are stdlib/baked-in and
# always run.
#
# Usage: scripts/check.sh
set -u -o pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
status=0
# The pin gates append to one run set; the regression guard reads it.
bench_runs="$(mktemp -d)"
trap 'rm -rf "$bench_runs"' EXIT

step() {
  local name="$1"; shift
  echo ">>> $name: $*"
  if "$@"; then
    echo "    $name: ok"
  else
    status=1
    echo "    $name: FAILED"
  fi
  echo
}

optional_step() {
  local name="$1" tool="$2"
  if python -c "import importlib.util,sys;sys.exit(importlib.util.find_spec('$tool') is None)" 2>/dev/null; then
    shift 2
    step "$name" "$@"
  else
    echo ">>> $name: skipped ($tool not installed)"
    echo
  fi
}

step "invariant analyzer (per-file + whole-program)" \
  python -m repro.analysis --strict --timing src
step "sweep parity (serial == parallel, incl. telemetry snapshots)" \
  python -m repro sweep-check --jobs 2
step "forecast service smoke (tier routing, cache hit, /metrics)" \
  python -m repro serve --smoke --runs 16
step "topology experiment (smoke)" \
  env REPRO_SCALE=smoke python -m repro run topology
step "faults experiment (smoke)" \
  env REPRO_SCALE=smoke python -m repro run faults
step "bulk engine speedup gate (smoke, asserts >= 58x over DES baseline)" \
  env REPRO_SCALE=smoke python -m repro run bulk
step "availability experiment (smoke, asserts trade-off monotonicity)" \
  env REPRO_SCALE=smoke python -m repro run availability
step "DES pin gate (des-fig3a: 20 s of seed-0 passes against bench/pins.json)" \
  python3 -m bench --workload des-fig3a --seconds 20 --out "$bench_runs/runs.json"
step "DES pin gate (des-lazy: 20 s of seed-0 passes against bench/pins.json)" \
  python3 -m bench --workload des-lazy --seconds 20 --out "$bench_runs/runs.json"
step "bulk pin gate (bulk-fig5: 20 s of seed-0 passes, losses and every signature)" \
  python3 -m bench --workload bulk-fig5 --seconds 20 --out "$bench_runs/runs.json"
step "bench-regression guard (pin-gate runs vs results/bench-baseline.json)" \
  python scripts/bench_guard.py "$bench_runs/runs.json"
step "benchmark's own tests (incl. --quick --trace 1 on every workload)" \
  python3 -m pytest bench/tests -q
step "bulk conformance suite (incl. slow CI-overlap tests)" \
  python -m pytest tests/test_bulk.py -q -m "slow or not slow"
step "availability conformance suite (incl. slow lazy-policy brackets)" \
  python -m pytest tests/test_availability.py -q -m "slow or not slow"
optional_step "ruff" ruff python -m ruff check src tests examples
optional_step "mypy" mypy python -m mypy
step "fault-injection tests" python -m pytest tests/test_faults.py tests/test_fault_scenarios.py -q
step "tier-1 tests" python -m pytest -x -q
step "statistical conformance (slow suites)" python -m pytest -q -m slow
optional_step "coverage (pytest-cov, line floor 70% for src/repro)" pytest_cov \
  python -m pytest -q --cov=src/repro --cov-report=term --cov-fail-under=70

if [ $status -ne 0 ]; then
  echo "check.sh: FAILED"
else
  echo "check.sh: all checks passed"
fi
exit $status
