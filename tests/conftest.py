"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_perf_history(tmp_path, monkeypatch):
    """Keep tests out of the tracked perf history.

    Sweep runners append to ``REPRO_BENCH_PATH`` (default: the tracked
    ``results/BENCH_sweep.json``); here it points into the test's
    ``tmp_path``.  The telemetry sink stays off (``""``), as when the
    variable is unset: a sink path would switch telemetry on for every
    runner.  Monkeypatching both also undoes a test's own writes to
    them (``repro run --telemetry`` exports its path), so nothing leaks
    into later tests.  A test that asserts on either file sets its own
    path.
    """
    monkeypatch.setenv("REPRO_BENCH_PATH", str(tmp_path / "BENCH_sweep.json"))
    monkeypatch.setenv("REPRO_TELEMETRY_PATH", "")
