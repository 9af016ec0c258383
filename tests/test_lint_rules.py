"""Unit tests for the invariant linter (repro.analysis).

Each rule has a fixture in ``tests/fixtures/lint/`` carrying exactly one
known violation; the tests pin the rule ID and line number, and check
that ``# repro: noqa`` suppression works per line and per rule ID.
"""

from pathlib import Path

import pytest

from repro.analysis import (GUARDED_DIRS, PARAM_GUARDED_DIRS, RULES,
                            SIM_DIRS, WALL_CLOCK_GUARDED_DIRS, Violation,
                            lint_file, lint_paths, lint_source, render_json,
                            render_text)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: fixture file -> (expected rule, expected line)
EXPECTED = {
    "rpr001_import_random.py": ("RPR001", 4),
    "rpr002_default_rng.py": ("RPR002", 7),
    "rpr003_builtin_hash.py": ("RPR003", 5),
    "sim/rpr004_wall_clock.py": ("RPR004", 10),
    "rpr005_magic_literal.py": ("RPR005", 4),
    "rpr006_unit_suffix.py": ("RPR006", 5),
    "rpr007_print.py": ("RPR007", 5),
    "rpr008_clock_assign.py": ("RPR008", 6),
    "cluster/rpr009_silent_except.py": ("RPR009", 7),
    "reliability/rpr009_silent_except.py": ("RPR009", 7),
    "service/rpr009_silent_except.py": ("RPR009", 7),
    "disks/rpr010_hardcoded_param.py": ("RPR010", 5),
    "cluster/rpr011_wall_clock.py": ("RPR011", 11),
    "service/rpr011_wall_clock.py": ("RPR011", 13),
}


class TestRegistry:
    def test_eleven_rules_with_unique_ids(self):
        ids = [r.id for r in RULES]
        assert len(ids) == len(set(ids)) == 11
        assert sorted(ids) == [f"RPR{n:03d}" for n in range(1, 12)]

    def test_every_rule_documented(self):
        for rule in RULES:
            assert rule.summary, rule.id
            assert rule.__doc__ and rule.id in rule.__doc__, rule.id

    @pytest.mark.parametrize("scope", [
        SIM_DIRS, WALL_CLOCK_GUARDED_DIRS, GUARDED_DIRS,
        PARAM_GUARDED_DIRS], ids=[
        "SIM_DIRS", "WALL_CLOCK_GUARDED_DIRS", "GUARDED_DIRS",
        "PARAM_GUARDED_DIRS"])
    def test_rule_scopes_name_packages_under_src(self, scope):
        # A scope that names no package guards nothing.
        for directory in scope:
            assert (PACKAGE / directory / "__init__.py").is_file(), \
                directory


class TestFixtures:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()),
                             ids=sorted(EXPECTED))
    def test_fixture_flags_rule_and_line(self, name, expected):
        rule, line = expected
        violations = lint_file(FIXTURES / name)
        assert [(v.rule, v.line) for v in violations] == [(rule, line)]

    def test_clean_fixture_is_silent(self):
        assert lint_file(FIXTURES / "clean.py") == []

    def test_signal_value_fixture_in_reliability_is_silent(self):
        path = FIXTURES / "reliability" / "rpr009_signal_value.py"
        assert lint_file(path) == []

    def test_whole_fixture_dir_totals(self):
        violations = lint_paths([FIXTURES])
        assert len(violations) == len(EXPECTED)
        assert {v.rule for v in violations} == {
            r for r, _ in EXPECTED.values()}


class TestNoqa:
    def test_noqa_fixture_fully_suppressed(self):
        assert lint_file(FIXTURES / "noqa_suppressed.py") == []

    def test_bare_noqa_suppresses_any_rule(self):
        src = "import random  # repro: noqa\n"
        assert lint_source(src, "x.py") == []

    def test_listed_id_suppresses_only_that_rule(self):
        src = "import random  # repro: noqa RPR001\n"
        assert lint_source(src, "x.py") == []

    def test_wrong_id_does_not_suppress(self):
        src = "import random  # repro: noqa RPR005\n"
        violations = lint_source(src, "x.py")
        assert [v.rule for v in violations] == ["RPR001"]

    def test_multiple_ids(self):
        src = "t = 3600  # repro: noqa RPR001, RPR005\n"
        assert lint_source(src, "x.py") == []


class TestRuleEdges:
    def test_seeded_default_rng_is_fine(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(src, "x.py") == []

    def test_wall_clock_outside_sim_dirs_is_fine(self):
        src = "import time\nt = time.time()\n"
        assert lint_source(src, "experiments/harness.py") == []

    def test_wall_clock_inside_placement_flagged(self):
        src = "import time\nt = time.time()\n"
        violations = lint_source(src, "placement/harness.py")
        assert [v.rule for v in violations] == ["RPR004"]

    def test_wall_clock_in_telemetry_flagged_once_as_rpr011(self):
        src = "import time\nt = time.time()\n"
        for directory in ("telemetry", "cluster", "faults", "service"):
            violations = lint_source(src, f"{directory}/probes.py")
            assert [v.rule for v in violations] == ["RPR011"], directory

    def test_wall_clock_allowlist_exempts_service_app_only(self):
        # service/app.py is allowlisted (request latency is host time by
        # definition); every other service file stays guarded.
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "repro/service/app.py") == []
        violations = lint_source(src, "repro/service/cascade.py")
        assert [v.rule for v in violations] == ["RPR011"]

    def test_wall_clock_allowlist_entries_are_justified(self):
        from repro.analysis.determinism import (WALL_CLOCK_ALLOWLIST,
                                                WALL_CLOCK_GUARDED_DIRS)
        for suffix, why in WALL_CLOCK_ALLOWLIST.items():
            directory = suffix.split("/")[0]
            assert directory in WALL_CLOCK_GUARDED_DIRS, suffix
            assert why.strip(), f"{suffix} needs a justification"

    def test_sim_dir_never_double_reports_wall_clock(self):
        # A path under both an RPR004 and an RPR011 directory gets
        # exactly one violation (RPR004's) for one call.
        src = "import time\nt = time.time()\n"
        violations = lint_source(src, "faults/sim/recovery.py")
        assert [v.rule for v in violations] == ["RPR004"]

    def test_print_allowed_in_main_and_trace(self):
        src = "print('hi')\n"
        assert lint_source(src, "repro/__main__.py") == []
        assert lint_source(src, "repro/sim/trace.py") == []

    def test_private_function_params_exempt_from_rpr006(self):
        src = "def _helper(size_gb):\n    return size_gb\n"
        assert lint_source(src, "x.py") == []

    def test_units_py_exempt_from_rpr005(self):
        src = "HOUR = 3600.0\n"
        assert lint_source(src, "repro/units.py") == []

    def test_clock_assign_allowed_in_engine(self):
        src = "class S:\n    def step(self):\n        self._now = 1.0\n"
        assert lint_source(src, "sim/engine.py") == []

    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", "x.py")
        assert [v.rule for v in violations] == ["RPR000"]

    def test_magic_literal_in_docstring_not_flagged(self):
        src = '"""Runs for 3600 seconds."""\n'
        assert lint_source(src, "x.py") == []

    def test_silent_except_outside_guarded_dirs_is_fine(self):
        src = ("try:\n    f()\nexcept ValueError:\n    pass\n")
        assert lint_source(src, "experiments/harness.py") == []

    def test_silent_except_in_reliability_flagged(self):
        src = ("try:\n    f()\nexcept OSError:\n    pass\n")
        violations = lint_source(src, "reliability/runner.py")
        assert [v.rule for v in violations] == ["RPR009"]

    def test_silent_except_in_cluster_flagged(self):
        src = ("try:\n    f()\nexcept ValueError:\n    pass\n")
        violations = lint_source(src, "cluster/system.py")
        assert [v.rule for v in violations] == ["RPR009"]

    def test_signal_value_return_not_flagged(self):
        src = ("def g():\n    try:\n        return f()\n"
               "    except ValueError:\n        return False\n")
        assert lint_source(src, "cluster/farm.py") == []

    def test_param_default_copy_flagged_in_reliability(self):
        src = "threshold = 0.4\n"
        violations = lint_source(src, "reliability/simulation.py")
        assert [v.rule for v in violations] == ["RPR010"]

    def test_param_definition_sites_not_flagged(self):
        src = "def f(p=0.4, q=0.01):\n    return p + q\n"
        assert lint_source(src, "disks/smart.py") == []
        src = "class C:\n    spare_reserve_fraction: float = 0.04\n"
        assert lint_source(src, "disks/disk.py") == []

    def test_param_literal_outside_guarded_dirs_is_fine(self):
        src = "threshold = 0.4\n"
        assert lint_source(src, "experiments/harness.py") == []

    def test_unrelated_float_not_flagged(self):
        src = "half = 0.5\n"
        assert lint_source(src, "reliability/simulation.py") == []

    def test_unweighted_arithmetic_in_experiments_is_fine(self):
        src = "p = losses / runs\n"
        assert lint_source(src, "experiments/figure7.py") == []

    def test_accounted_swallow_not_flagged(self):
        src = ("def g(self):\n    try:\n        return f()\n"
               "    except ValueError:\n"
               "        self.stats.retries += 1\n"
               "        self.defer_rebuild()\n        return None\n")
        assert lint_source(src, "cluster/farm.py") == []


class TestReporting:
    def test_text_format(self):
        v = Violation(path="a.py", line=3, col=1, rule="RPR001",
                      message="boom")
        assert render_text([v]) == "a.py:3:1: RPR001 boom"

    def test_json_counts(self):
        import json
        violations = lint_paths([FIXTURES])
        doc = json.loads(render_json(violations))
        assert doc["total"] == len(violations)
        assert sum(doc["counts"].values()) == doc["total"]
