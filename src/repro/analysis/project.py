"""Whole-program analysis driver: collect facts, then check globally.

This is the *check* half of the two-pass design.  Pass one runs per
file — the local RPR001–012 rules plus :func:`collect_facts`.  Pass two
aggregates every module's facts into a
:class:`~repro.analysis.callgraph.ProjectGraph` and runs the
RPR100-series whole-program rules over it.  Every run reads every file.

Internal analyzer failures never escape as tracebacks: any exception
while processing a file becomes an :class:`AnalysisError` naming the
offending file, and the CLI turns a non-empty error list into exit
status 2 (distinct from 1 = findings).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .base import Violation
from .callgraph import build_graph
from .configflow import (DEADCONF_RULE_ID, DEADCONF_RULE_SUMMARY,
                         check_dead_config)
from .runner import iter_python_files, lint_source
from .streams import check_streams
from .streams import RULE_ID as STREAMS_RULE_ID
from .streams import RULE_SUMMARY as STREAMS_RULE_SUMMARY
from .symbols import ModuleFacts, collect_facts
from .unitflow import check_units
from .unitflow import RULE_ID as UNITFLOW_RULE_ID
from .unitflow import RULE_SUMMARY as UNITFLOW_RULE_SUMMARY


@dataclass(frozen=True)
class ProjectRuleInfo:
    """Descriptor for one whole-program rule (reporting only).

    The RPR100 series is intentionally *not* in :data:`~.base.RULES`:
    those are per-file ``ast.NodeVisitor`` rules; these run over the
    aggregated project facts and have no per-file ``check`` entry point.
    """

    id: str
    summary: str


PROJECT_RULES: tuple[ProjectRuleInfo, ...] = (
    ProjectRuleInfo(UNITFLOW_RULE_ID, UNITFLOW_RULE_SUMMARY),
    ProjectRuleInfo(STREAMS_RULE_ID, STREAMS_RULE_SUMMARY),
    ProjectRuleInfo(DEADCONF_RULE_ID, DEADCONF_RULE_SUMMARY),
)


@dataclass(frozen=True)
class AnalysisError:
    """An internal analyzer failure attributed to one input file."""

    path: str
    message: str

    def format(self) -> str:
        return f"internal analyzer error in {self.path}: {self.message}"


@dataclass
class AnalysisResult:
    """Findings, internal errors, and stage statistics of one run."""

    violations: list[Violation] = field(default_factory=list)
    errors: list[AnalysisError] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)


def package_root(path: Path) -> Path:
    """Directory above the outermost package containing ``path``.

    ``src/repro/analysis/base.py`` resolves to ``src`` (the first
    ancestor without an ``__init__.py``), so module names come out as
    importable dotted paths.
    """
    current = (path if path.is_dir() else path.parent).resolve()
    while (current / "__init__.py").exists() \
            and current.parent != current:
        current = current.parent
    return current


def analyze_paths(paths: Sequence[str | Path], *,
                  roots: Sequence[str | Path] | None = None,
                  project_checks: bool = True) -> AnalysisResult:
    """Run the full analysis (local rules + whole-program rules).

    ``roots`` defaults to the package root of each input path; pass it
    explicitly when analyzing fixture trees.  With
    ``project_checks=False`` only the per-file rules run, matching the
    historical linter behavior.
    """
    start = time.perf_counter()
    result = AnalysisResult()
    if roots is None:
        root_paths = sorted({package_root(Path(p)) for p in paths})
    else:
        root_paths = [Path(r) for r in roots]
    facts_list: list[ModuleFacts] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        key = str(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            result.errors.append(AnalysisError(key, f"unreadable: {exc}"))
            continue
        try:
            local = lint_source(source, path)
            if project_checks and not any(v.rule == "RPR000"
                                          for v in local):
                facts_list.append(collect_facts(source, path, root_paths))
        except Exception as exc:
            result.errors.append(AnalysisError(
                key, f"{type(exc).__name__}: {exc}"))
            continue
        result.violations.extend(local)
    collect_elapsed = time.perf_counter() - start
    check_start = time.perf_counter()
    if project_checks:
        graph = build_graph(facts_list)
        try:
            result.violations.extend(check_units(graph))
            result.violations.extend(check_streams(graph))
            result.violations.extend(check_dead_config(graph))
        except Exception as exc:
            result.errors.append(AnalysisError(
                "<project-checks>", f"{type(exc).__name__}: {exc}"))
    result.violations.sort()
    result.stats = {
        "files": n_files,
        "collect_s": collect_elapsed,
        "check_s": time.perf_counter() - check_start,
    }
    return result
