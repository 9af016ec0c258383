"""Static analyzer for the reproduction codebase.

Two layers keep the simulator's correctness invariants machine-checked
instead of convention-checked:

* **Per-file rules** (``RPR001``–``RPR011``, in :data:`RULES`): AST
  visitors over one module — determinism, unit hygiene, simulation
  discipline, robustness, parameterization.
* **Whole-program rules** (``RPR101``, ``RPR102`` and ``RPR104``, in
  :data:`PROJECT_RULES`): checks over the aggregated project facts —
  unit flow across calls and fields, RNG stream ownership, and dead or
  shadowed config knobs.

One code path serves both: read each file, lint it, collect its facts,
then check the facts set.  Every run analyzes every file.  The full
rule catalog is documented in ``docs/ANALYSIS.md``.  Run the analyzer
as ``python -m repro.analysis [--strict] [paths]`` (``--format json``
for machine output); suppress a single line with ``# repro: noqa`` or
``# repro: noqa RPRxxx``.  ``tests/test_static_analysis.py`` gates the
tree: tier-1 fails on any violation in ``src/``.
"""

from .base import RULES, FileContext, Rule, Violation
from .callgraph import ProjectGraph, build_graph
from .determinism import SIM_DIRS, WALL_CLOCK_GUARDED_DIRS
from .discipline import PRINT_SINKS
from .parameters import KNOWN_PARAMETER_DEFAULTS, PARAM_GUARDED_DIRS
from .project import (PROJECT_RULES, AnalysisError, AnalysisResult,
                      ProjectRuleInfo, analyze_paths)
from .reporting import render_json, render_rule_list, render_text
from .robustness import GUARDED_DIRS
from .runner import iter_python_files, lint_file, lint_paths, lint_source
from .symbols import ModuleFacts, collect_facts, module_name_for
from .units_rules import DEPRECATED_SUFFIXES, MAGIC_LITERALS

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "DEPRECATED_SUFFIXES",
    "FileContext",
    "GUARDED_DIRS",
    "KNOWN_PARAMETER_DEFAULTS",
    "MAGIC_LITERALS",
    "ModuleFacts",
    "PARAM_GUARDED_DIRS",
    "PRINT_SINKS",
    "PROJECT_RULES",
    "ProjectGraph",
    "ProjectRuleInfo",
    "RULES",
    "Rule",
    "SIM_DIRS",
    "Violation",
    "WALL_CLOCK_GUARDED_DIRS",
    "analyze_paths",
    "build_graph",
    "collect_facts",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "render_json",
    "render_rule_list",
    "render_text",
]
