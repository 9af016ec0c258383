"""Docstring examples must actually run (they are the first thing users
copy-paste)."""

import doctest

import pytest

import repro.reliability.scenarios
import repro.sim.engine

MODULES = [
    repro.sim.engine,
    repro.reliability.scenarios,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__}: no doctests found"
    assert results.failed == 0
