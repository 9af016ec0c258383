"""CLI for the analyzer: ``python -m repro.analysis [paths]``.

Default mode runs the per-file rules (RPR001–RPR012), exactly as the
historical linter did.  ``--strict`` adds the whole-program pass
(RPR101, RPR102, RPR104: unit flow, stream ownership, dead config)
with an incremental content-hash cache.

Exit status: 0 clean, 1 findings, 2 internal analyzer error (the
offending file is named on stderr — never a bare traceback).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .baseline import apply_baseline, load_baseline, render_baseline
from .cache import CACHE_DIR_NAME, AnalysisCache
from .project import analyze_paths, restrict_to_changed
from .reporting import (render_json, render_rule_list, render_sarif,
                        render_text)

#: CLI exit statuses.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analyzer: per-file invariant rules "
                    "(RPR001-RPR012) plus, with --strict, whole-program "
                    "unit-flow / stream-ownership / dead-config "
                    "checks (RPR101, RPR102, RPR104).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--strict", action="store_true",
                        help="also run the whole-program RPR101-RPR104 "
                             "checks")
    parser.add_argument("--baseline", metavar="FILE",
                        help="suppress findings fingerprinted in FILE")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record current findings to FILE and exit 0")
    parser.add_argument("--changed-only", action="store_true",
                        help="report only findings in files changed "
                             "since the last cached run")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the incremental "
                             "cache")
    parser.add_argument("--cache-dir", default=CACHE_DIR_NAME,
                        help="incremental cache directory "
                             f"(default: {CACHE_DIR_NAME})")
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

    cache = None
    if args.strict and not args.no_cache:
        cache = AnalysisCache(args.cache_dir)
    result = analyze_paths(args.paths, cache=cache,
                           project_checks=args.strict)

    violations = result.violations
    if args.changed_only:
        violations = (restrict_to_changed(result) if cache is not None
                      else violations)
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            render_baseline(violations), encoding="utf-8")
        print(f"wrote {len(violations)} finding(s) to "
              f"{args.write_baseline}", file=sys.stderr)
        return EXIT_CLEAN
    matched = 0
    if args.baseline:
        violations, matched = apply_baseline(
            violations, load_baseline(args.baseline))

    if args.format == "json":
        print(render_json(violations))
    elif args.format == "sarif":
        print(render_sarif(violations))
    elif violations:
        print(render_text(violations))

    if args.timing:
        stats = result.stats
        print(f"analyzed {stats.get('files', 0)} file(s): "
              f"collect {stats.get('collect_s', 0.0):.3f}s "
              f"({stats.get('cache_hits', 0)} cached), "
              f"check {stats.get('check_s', 0.0):.3f}s",
              file=sys.stderr)
    for error in result.errors:
        print(error.format(), file=sys.stderr)
    if result.errors:
        return EXIT_INTERNAL_ERROR
    if violations:
        suffix = (f" ({matched} suppressed by baseline)"
                  if matched else "")
        print(f"{len(violations)} violation(s) found{suffix}",
              file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
