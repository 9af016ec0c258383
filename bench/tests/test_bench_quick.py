"""End to end: ``python -m bench --quick`` against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

from bench.cli import ROOT, load_spec

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def git_status() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True).stdout


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, names", [
    (0, [m["name"] for m in SPEC["end_to_end"]]),
    (1, [m["name"] for m in SPEC["per_layer"]])])
def test_quick_run_reports_exactly_the_declared_names(tmp_path, trace,
                                                      names):
    before = git_status()
    out = tmp_path / "runs.json"
    proc = bench("--quick", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == WORKLOADS
    units = {m["name"]: m["unit"] for m in
             SPEC["end_to_end"] + SPEC["per_layer"]}
    for metrics in last["metrics"].values():
        assert list(metrics) == names
        for name, m in metrics.items():
            assert m["unit"] == units[name]
            assert isinstance(m["value"], (int, float))
    [run] = json.loads(out.read_text())["runs"]
    assert list(run["workloads"]) == WORKLOADS
    if trace:
        # Every declared layer metric is measured by some workload.
        measured = set().union(*(set(r["layers"])
                                 for r in run["workloads"].values()))
        assert measured == set(names)
    assert git_status() == before


def test_single_workload_prints_flat_metrics():
    proc = bench("--quick", "--workload", "des-lazy", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
