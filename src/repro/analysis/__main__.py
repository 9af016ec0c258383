"""CLI for the analyzer: ``python -m repro.analysis [paths]``.

Default mode runs the per-file rules (RPR001–RPR011), exactly as the
historical linter did.  ``--strict`` adds the whole-program pass
(RPR101, RPR102, RPR104: unit flow, stream ownership, dead config).
Every run analyzes every file.

Exit status: 0 clean, 1 findings, 2 internal analyzer error (the
offending file is named on stderr — never a bare traceback).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .project import analyze_paths
from .reporting import render_json, render_rule_list, render_text

#: CLI exit statuses.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analyzer: per-file invariant rules "
                    "(RPR001-RPR011) plus, with --strict, whole-program "
                    "unit-flow / stream-ownership / dead-config "
                    "checks (RPR101, RPR102, RPR104).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--strict", action="store_true",
                        help="also run the whole-program RPR101-RPR104 "
                             "checks")
    parser.add_argument("--timing", action="store_true",
                        help="print per-stage timings to stderr")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return EXIT_CLEAN

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error("no such file or directory: " + ", ".join(missing))

    result = analyze_paths(args.paths, project_checks=args.strict)
    violations = result.violations
    if args.format == "json":
        print(render_json(violations))
    elif violations:
        print(render_text(violations))

    if args.timing:
        stats = result.stats
        print(f"analyzed {stats['files']} file(s): "
              f"collect {stats['collect_s']:.3f}s, "
              f"check {stats['check_s']:.3f}s", file=sys.stderr)
    for error in result.errors:
        print(error.format(), file=sys.stderr)
    if result.errors:
        return EXIT_INTERNAL_ERROR
    if violations:
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
