"""Violation reporters: plain text and JSON."""

from __future__ import annotations

import json
from typing import Sequence

from .base import RULES, Violation
from .project import PROJECT_RULES


def render_text(violations: Sequence[Violation]) -> str:
    """One ``path:line:col: RPRxxx message`` line per violation."""
    return "\n".join(v.format() for v in violations)


def render_json(violations: Sequence[Violation]) -> str:
    """A JSON document: violation list plus a per-rule count summary."""
    counts: dict[str, int] = {}
    for v in violations:
        counts[v.rule] = counts.get(v.rule, 0) + 1
    return json.dumps({"violations": [v.to_dict() for v in violations],
                       "counts": counts, "total": len(violations)},
                      indent=2)


def render_rule_list() -> str:
    """Human-readable table of every rule, per-file and whole-program.

    Detailed per-rule prose lives in ``docs/ANALYSIS.md``; this listing
    is the one-line catalog.
    """
    catalog = [(rule.id, rule.summary) for rule in RULES]
    catalog.extend((info.id, info.summary) for info in PROJECT_RULES)
    lines = [f"{rule_id}  {summary}"
             for rule_id, summary in sorted(catalog)]
    lines.append("")
    lines.append("Details: docs/ANALYSIS.md.  Whole-program rules "
                 "(RPR101+) run with --strict.")
    return "\n".join(lines)
