"""``scripts/bench_guard.py`` judges a run set against a baseline.

The run sets here are synthetic, shaped like ``python3 -m bench --out``
output: one workload per run, five baseline runs per guarded workload.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_guard.py"

HOST = {"nproc": 2, "cpu": "Test CPU @ 2.00GHz", "python": "3.11.7",
        "numpy": "2.4.6"}

#: Baseline throughput per guarded workload (per second).
RATES = {"des-fig3a": 150_000.0, "des-lazy": 130_000.0, "bulk-fig5": 3_500.0}


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload: str, rate: float, failed: int = 0, seconds: float = 1.0,
        host: dict = HOST) -> dict:
    return {"seed": 0, "seconds": seconds, "quick": False, "trace": 0,
            "host": host,
            "workloads": {workload: {
                "attempted": 100, "failed": failed,
                "metrics": {"throughput_per_s": {"value": rate},
                            "latency_ms": {"value": 1e3 / rate}}}}}


def baseline() -> list[dict]:
    return [run(w, rate * f) for f in (0.97, 0.99, 1.0, 1.01, 1.03)
            for w, rate in RATES.items()]


def write(path: Path, runs: list[dict]) -> None:
    path.write_text(json.dumps({"schema": "repro-bench-runs.v1",
                                "runs": runs}))


@pytest.fixture
def check(guard, tmp_path, capsys, monkeypatch):
    """Run the guard on a run set against the synthetic baseline."""
    monkeypatch.setattr(guard, "BASELINE", tmp_path / "base.json")
    write(guard.BASELINE, baseline())

    def _check(runs: list[dict]) -> tuple[int, str]:
        write(tmp_path / "runs.json", runs)
        status = guard.main(["bench_guard.py", str(tmp_path / "runs.json")])
        captured = capsys.readouterr()
        return status, captured.out + captured.err
    return _check


def verdict(out: str, workload: str, metric: str) -> str:
    [row] = [ln for ln in out.splitlines()
             if ln.split()[:2] == [workload, metric]]
    return row.split()[-1]


def test_equal_set_passes(check):
    status, out = check([run(w, rate) for w, rate in RATES.items()])
    assert status == 0
    for workload in RATES:
        assert verdict(out, workload, "throughput_per_s") == "same"
        assert verdict(out, workload, "failed_frac") == "same"


def test_planted_slowdown_fails(check):
    """30 % below the baseline median is beyond the 20 % bound."""
    runs = [run(w, rate) for w, rate in RATES.items()]
    runs[2] = run("bulk-fig5", 0.7 * RATES["bulk-fig5"])
    status, out = check(runs)
    assert status == 1
    assert verdict(out, "bulk-fig5", "throughput_per_s") == "regressed"
    assert verdict(out, "des-fig3a", "throughput_per_s") == "same"
    assert "bench_guard: regressed: bulk-fig5 throughput_per_s" in out


def test_higher_failed_frac_fails(check):
    runs = [run(w, rate) for w, rate in RATES.items()]
    runs[0] = run("des-fig3a", RATES["des-fig3a"], failed=1)
    status, out = check(runs)
    assert status == 1
    assert verdict(out, "des-fig3a", "failed_frac") == "regressed"


def test_service_series_unaffected(check):
    """service-mix is not guarded: its rows are neither shown nor gated."""
    runs = [run(w, rate) for w, rate in RATES.items()]
    runs.append(run("service-mix", 1.0, failed=50))
    status, out = check(runs)
    assert status == 0
    assert "service-mix" not in out


def test_other_host_is_skipped(check):
    other = dict(HOST, cpu="Other CPU")
    runs = [run(w, 0.5 * rate, host=other) for w, rate in RATES.items()]
    status, out = check(runs)
    assert status == 0
    assert "skipped" in out
    assert "Other CPU" in out and "Test CPU" in out
    assert "throughput_per_s" not in out


def test_other_seconds_exit_2(check):
    runs = [run(w, rate, seconds=5.0) for w, rate in RATES.items()]
    status, out = check(runs)
    assert status == 2
    assert "cannot compare" in out


def test_unreadable_run_set_exits_2(guard, tmp_path, capsys):
    status = guard.main(["bench_guard.py", str(tmp_path / "missing.json")])
    assert status == 2
    assert "cannot read" in capsys.readouterr().err
