"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_telemetry_sink(monkeypatch):
    """Keep the telemetry sink off (``""``), as when the variable is unset.

    A sink path would switch telemetry on for every runner.
    Monkeypatching it also undoes a test's own writes to it (``repro run
    --telemetry`` exports its path), so nothing leaks into later tests.
    A test that asserts on the sink sets its own path.
    """
    monkeypatch.setenv("REPRO_TELEMETRY_PATH", "")
