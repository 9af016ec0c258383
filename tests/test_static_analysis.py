"""Tier-1 gate: the analyzer must pass on ``src/``.

This is the enforcement point for the repository's determinism,
unit-safety, and simulation-discipline invariants (per-file rules
RPR001–RPR011 and whole-program rules RPR101, RPR102 and RPR104, see
``docs/ANALYSIS.md``): any violation in the library tree fails the test
suite, with the offending ``file:line`` in the assertion message.

The ``rpr10x`` fixture trees prove each whole-program rule catches a
seeded cross-module violation — including a deliberately unread
``SystemConfig`` field and an out-of-subsystem ``bulk-*`` stream read —
and stays silent on the corresponding clean and allowlisted variants.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import analyze_paths, lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
RPR10X = FIXTURES / "rpr10x"


def _analyze_tree(name: str):
    tree = RPR10X / name / "src"
    return analyze_paths([tree], roots=[tree])


class TestSrcTreeIsClean:
    def test_no_violations_in_src(self):
        violations = lint_paths([SRC])
        assert violations == [], (
            "static-analysis violations in src/ "
            "(see docs/ANALYSIS.md for the rules):\n"
            + render_text(violations))

    def test_no_whole_program_violations_in_src(self):
        result = analyze_paths([SRC])
        assert result.errors == [], [e.format() for e in result.errors]
        assert result.violations == [], (
            "whole-program analysis violations in src/ "
            "(see docs/ANALYSIS.md for the rules):\n"
            + render_text(result.violations))


class TestWholeProgramFixtures:
    def test_rpr101_catches_cross_module_unit_mismatch(self):
        result = _analyze_tree("rpr101_pos")
        assert [v.rule for v in result.violations] == ["RPR101"]
        v = result.violations[0]
        assert v.path.endswith("flow.py")
        assert "seconds" in v.message and "bytes" in v.message

    def test_rpr101_negative_and_noqa_trees_are_clean(self):
        assert _analyze_tree("rpr101_neg").violations == []
        assert _analyze_tree("rpr101_noqa").violations == []

    def test_rpr102_catches_out_of_subsystem_stream_read(self):
        result = _analyze_tree("rpr102_pos")
        assert [v.rule for v in result.violations] == ["RPR102"]
        v = result.violations[0]
        assert v.path.endswith("sweep.py")
        assert "bulk-failures" in v.message
        assert "repro.reliability.bulk" in v.message

    def test_rpr102_owner_and_allowlisted_consumers_are_clean(self):
        assert _analyze_tree("rpr102_neg").violations == []
        assert _analyze_tree("rpr102_allow").violations == []

    def test_rpr104_catches_unread_field_and_shadow_defaults(self):
        result = _analyze_tree("rpr104_pos")
        found = sorted((v.rule, Path(v.path).name)
                       for v in result.violations)
        assert found == [("RPR104", "config.py"),
                         ("RPR104", "farm.py"),
                         ("RPR104", "farm.py")]
        messages = " ".join(v.message for v in result.violations)
        assert "orphan_knob" in messages        # the unread config field
        assert "duration_s=60.0" in messages    # the parameter shadow
        assert "LocalTuning.duration_s" in messages

    def test_rpr104_negative_tree_is_clean(self):
        assert _analyze_tree("rpr104_neg").violations == []


def _run_cli(*args: str, cwd: Path = REPO_ROOT
             ) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, cwd=cwd)


class TestCli:
    def test_clean_tree_exits_zero(self):
        proc = _run_cli(str(SRC))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_strict_clean_tree_exits_zero(self):
        proc = _run_cli("--strict", "--timing", str(SRC))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "collect" in proc.stderr     # --timing report

    def test_violations_exit_nonzero_with_rule_and_location(self):
        proc = _run_cli(str(FIXTURES))
        assert proc.returncode == 1
        assert "RPR001" in proc.stdout
        assert "rpr001_import_random.py:4" in proc.stdout

    def test_json_format_is_parseable(self):
        proc = _run_cli(str(FIXTURES), "--format", "json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["total"] == len(doc["violations"]) > 0
        assert doc["counts"]["RPR001"] == 1

    def test_internal_error_exits_two_naming_the_file(self, tmp_path):
        bomb = tmp_path / "bomb.py"
        bomb.write_text("x = " + "+".join(["1"] * 30000) + "\n",
                        encoding="utf-8")
        proc = _run_cli(str(tmp_path))
        assert proc.returncode == 2
        assert "internal analyzer error" in proc.stderr
        assert "bomb.py" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_list_rules_mentions_every_rule(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for n in range(1, 9):
            assert f"RPR00{n}" in proc.stdout
        for n in (101, 102, 104):
            assert f"RPR{n}" in proc.stdout
        assert "RPR103" not in proc.stdout      # retired
