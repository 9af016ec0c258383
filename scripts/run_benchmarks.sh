#!/usr/bin/env bash
# Run the full benchmark harness file by file, appending to bench_output.txt.
#
# Chunked so each invocation stays well under CI step timeouts on
# single-core runners; `pytest benchmarks/ --benchmark-only` in one shot is
# equivalent on bigger machines.
#
# Usage: REPRO_SCALE=small scripts/run_benchmarks.sh [output-file]
set -u -o pipefail
cd "$(dirname "$0")/.."
OUT="${1:-bench_output.txt}"

{
  echo "=== FARM reproduction benchmark harness ==="
  echo "REPRO_SCALE=${REPRO_SCALE:-small}  host=$(hostname)  $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo
} > "$OUT"

status=0
run() {
  echo ">>> pytest $* --benchmark-only" >> "$OUT"
  python -m pytest "$@" --benchmark-only 2>&1 | tee -a "$OUT" | tail -1
  rc=$?
  [ $rc -ne 0 ] && status=$rc
  echo >> "$OUT"
}

run benchmarks/bench_table1_failure_model.py
run benchmarks/bench_mttdl.py
run benchmarks/bench_perf_degraded.py
run benchmarks/bench_kernels.py
run benchmarks/bench_figure3_farm_vs_raid.py
run benchmarks/bench_figure4_detection_latency.py
run benchmarks/bench_figure5_recovery_bandwidth.py
run benchmarks/bench_table3_utilization.py
run benchmarks/bench_figure7_replacement.py
run benchmarks/bench_redirection.py
run benchmarks/bench_figure8_scale.py -k figure8a
run benchmarks/bench_figure8_scale.py -k figure8b
run benchmarks/bench_ablations.py

echo "harness exit status: $status" >> "$OUT"
exit $status
