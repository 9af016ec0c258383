"""``scripts/bench_guard.py`` compares like with like.

Each guarded series' latest record is judged only against earlier
records of the same workload (sweep, grid size, run count, scale and
``events_fired``).  The histories here are temporary files shaped like
``results/BENCH_sweep.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_guard.py"


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def availability(runs_per_s: float, events_fired: int) -> dict:
    """An ``availability`` record: 6 points x 4 runs, no ``scale``."""
    return {"schema": "repro.bench-sweep.v1", "sweep": "availability",
            "run_id": "2fa40e855638", "engines": ["des"], "n_points": 6,
            "n_runs_per_point": 4, "total_runs": 24,
            "events_fired": events_fired, "runs_per_s": runs_per_s}


def bulk(runs_per_s: float, scale: str) -> dict:
    return {"schema": "repro.bench-sweep.v1", "sweep": "bulk-sweep",
            "scale": scale, "n_points": 20, "n_runs_per_point": 100,
            "events_fired": 0, "runs_per_s": runs_per_s}


def service(p99_s: float) -> dict:
    return {"schema": "repro.bench-sweep.v1", "sweep": "service-bench",
            "n_requests": 200, "runs_per_s": 900.0, "p99_s": p99_s}


#: The shape of the tracked history: small-scale availability runs
#: (830,626 events, ~0.85 runs/s) followed by smoke-scale ones (45,642
#: events, ~13 runs/s) under the same run id.
SMALL, SMOKE = 830_626, 45_642
HISTORY = [availability(0.865, SMALL), availability(0.832, SMALL),
           availability(12.62, SMOKE), availability(12.52, SMOKE),
           bulk(3183.5, "smoke"), bulk(2803.6, "smoke"),
           service(0.00416), availability(13.21, SMOKE),
           bulk(3532.0, "smoke")]


def run(guard, tmp_path, records, capsys) -> tuple[int, str]:
    path = tmp_path / "BENCH_sweep.json"
    path.write_text(json.dumps({"schema": "repro.bench-sweep-log.v1",
                                "records": records}), encoding="utf-8")
    status = guard.main(["bench_guard.py", str(path)])
    return status, capsys.readouterr().out


def line(out: str, label: str) -> str:
    [found] = [ln for ln in out.splitlines()
               if ln.startswith(f"bench_guard: {label}")]
    return found


def test_rerun_at_another_scale_passes(guard, tmp_path, capsys):
    """A repeat of the last small-scale record used to be judged against
    the smoke-scale best (13.2 runs/s) and fail."""
    status, out = run(guard, tmp_path, HISTORY + [availability(0.832, SMALL)],
                      capsys)
    assert status == 0
    assert "best prior 0.9 " in line(out, "availability")
    assert "over 2 comparable of 6 records — ok" in out


def test_planted_slowdown_fails(guard, tmp_path, capsys):
    """30 % below every comparable record is under the 0.7x floor of the
    best of them."""
    slow = availability(0.7 * 0.832, SMALL)
    status, out = run(guard, tmp_path, HISTORY + [slow], capsys)
    assert status == 1
    assert line(out, "availability").endswith("REGRESSION")


def test_slowdown_against_smoke_records_only_is_not_compared(
        guard, tmp_path, capsys):
    """A new workload (other events fired) has no comparable prior."""
    status, out = run(guard, tmp_path,
                      HISTORY + [availability(0.1, SMALL + 1)], capsys)
    assert status == 0
    assert "nothing to compare — ok" in line(out, "availability")


def test_scale_separates_bulk_records(guard, tmp_path, capsys):
    status, out = run(guard, tmp_path, HISTORY + [bulk(30.0, "small")],
                      capsys)
    assert status == 0
    assert "nothing to compare" in line(out, "bulk")
    status, out = run(guard, tmp_path, HISTORY + [bulk(30.0, "smoke")],
                      capsys)
    assert status == 1
    assert line(out, "bulk").endswith("REGRESSION")


def test_service_series_unaffected(guard, tmp_path, capsys):
    """Service records carry no workload fields besides the sweep: every
    earlier one is comparable, under the same 3x p99 ceiling."""
    status, out = run(guard, tmp_path, HISTORY + [service(0.012)], capsys)
    assert status == 0
    assert line(out, "service p99") == (
        "bench_guard: service p99 12.00 ms vs best prior 4.16 (ceiling "
        "12.48 = 3x) over 1 comparable of 2 records — ok")
    status, out = run(guard, tmp_path, HISTORY + [service(0.013)], capsys)
    assert status == 1
    assert line(out, "service p99").endswith("REGRESSION")


def test_single_service_record_has_nothing_to_compare(
        guard, tmp_path, capsys):
    status, out = run(guard, tmp_path, HISTORY, capsys)
    assert status == 0
    assert "nothing to compare" in line(out, "service p99")
