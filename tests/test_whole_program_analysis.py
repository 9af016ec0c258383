"""Unit suite for the whole-program analyzer (repro.analysis v2).

Covers the infrastructure the RPR100-series rules stand on: per-module
fact collection, the project symbol/import/call graph (re-export chains,
``__init__`` re-binding, cycle detection), the content-hash incremental
cache (warm and cold runs must emit identical findings), the baseline
mechanism, and internal-error containment.
"""

import textwrap
from pathlib import Path

from repro.analysis.base import Violation
from repro.analysis.baseline import (apply_baseline, load_baseline,
                                     render_baseline,
                                     violation_fingerprint)
from repro.analysis.cache import AnalysisCache, source_digest
from repro.analysis.callgraph import build_graph, reachable_modules
from repro.analysis.project import analyze_paths, restrict_to_changed
from repro.analysis.streams import StreamPolicy, check_streams
from repro.analysis.symbols import collect_facts
from repro.analysis.unitflow import check_units


def facts_for(relpath: str, source: str, root: str = "proj"):
    """Collect facts for an in-memory module at a virtual path."""
    return collect_facts(textwrap.dedent(source),
                         Path(root) / relpath, roots=[Path(root)])


# --------------------------------------------------------------------- #
# Symbol table / call graph
# --------------------------------------------------------------------- #
class TestProjectGraph:
    def test_import_cycle_detection(self):
        graph = build_graph([
            facts_for("repro/a.py", "from . import b\n"),
            facts_for("repro/b.py", "from . import a\n"),
            facts_for("repro/c.py", "from . import a\n"),
        ])
        assert graph.import_cycles() == [["repro.a", "repro.b"]]

    def test_reexport_chain_resolves_to_definition_site(self):
        graph = build_graph([
            facts_for("repro/pkg/impl.py", """\
                def thing():
                    return 0
                """),
            facts_for("repro/pkg/__init__.py",
                      "from .impl import thing\n"),
            facts_for("repro/user.py",
                      "from repro.pkg import thing\n"),
        ])
        resolved = graph.resolve("repro.user", "thing")
        assert resolved is not None
        assert resolved.module == "repro.pkg.impl"
        assert resolved.qualname == "thing"
        assert resolved.kind == "function"

    def test_init_alias_rebinding_resolves(self):
        graph = build_graph([
            facts_for("repro/pkg/impl.py", """\
                def thing():
                    return 0
                """),
            facts_for("repro/pkg/__init__.py", """\
                from .impl import thing

                legacy_thing = thing
                """),
        ])
        resolved = graph.resolve("repro.pkg", "legacy_thing")
        assert resolved is not None
        assert resolved.module == "repro.pkg.impl"

    def test_dotted_resolution_through_module_binding(self):
        graph = build_graph([
            facts_for("repro/util.py", """\
                def helper():
                    return 0
                """),
            facts_for("repro/main.py", """\
                from repro import util

                def go():
                    return util.helper()
                """),
        ])
        resolved = graph.resolve_dotted("repro.main", "util.helper")
        assert resolved is not None and resolved.module == "repro.util"
        edges = graph.call_edges()
        assert "repro.util:helper" in edges["repro.main:go"]

    def test_self_method_calls_resolve_within_class(self):
        graph = build_graph([facts_for("repro/m.py", """\
            class Engine:
                def step(self):
                    return self.tick()

                def tick(self):
                    return 1
            """)])
        edges = graph.call_edges()
        assert edges["repro.m:Engine.step"] == {"repro.m:Engine.tick"}

    def test_reachable_modules_follows_import_edges(self):
        graph = build_graph([
            facts_for("repro/a.py", "from . import b\n"),
            facts_for("repro/b.py", "from . import c\n"),
            facts_for("repro/c.py", "X = 1\n"),
            facts_for("repro/d.py", "X = 2\n"),
        ])
        reached = reachable_modules(graph.import_edges, "repro.a")
        # external leaves (the bare package name) stay in the set;
        # what matters is b and c are reached and d is not.
        assert {"repro.a", "repro.b", "repro.c"} <= reached
        assert "repro.d" not in reached


# --------------------------------------------------------------------- #
# Unit flow / stream checks over synthetic facts
# --------------------------------------------------------------------- #
class TestUnitFlow:
    def test_mixed_dimension_addition_flagged(self):
        graph = build_graph([facts_for("repro/m.py", """\
            def total(size_bytes, wait_s):
                return size_bytes + wait_s
            """)])
        violations = check_units(graph)
        assert [v.rule for v in violations] == ["RPR101"]
        assert "bytes" in violations[0].message
        assert "seconds" in violations[0].message

    def test_division_cancels_dimensions(self):
        graph = build_graph([facts_for("repro/m.py", """\
            def transfer_s(size_bytes, rate_bps):
                total_s = size_bytes / rate_bps
                return total_s
            """)])
        assert check_units(graph) == []

    def test_property_dimension_reaches_other_modules(self):
        graph = build_graph([
            facts_for("repro/cfg.py", """\
                class Config:
                    raw_bytes: float

                    @property
                    def capacity(self):
                        return self.raw_bytes
                """),
            facts_for("repro/use.py", """\
                def deadline(cfg):
                    wait_s = cfg.capacity
                    return wait_s
                """),
        ])
        violations = check_units(graph)
        assert [v.rule for v in violations] == ["RPR101"]
        assert Path(violations[0].path).name == "use.py"

    def test_ambiguous_homonyms_stay_silent(self):
        graph = build_graph([
            facts_for("repro/a.py", """\
                def measure():
                    return CAPACITY_BYTES
                """),
            facts_for("repro/b.py", """\
                def measure():
                    return TIMEOUT_S
                """),
            facts_for("repro/use.py", """\
                def go(obj):
                    wait_s = obj.measure()
                    return wait_s
                """),
        ])
        assert check_units(graph) == []


class TestStreamOwnership:
    POLICY = StreamPolicy(owners={"pump": ("repro.owner",)})

    def test_unregistered_stream_on_stream_receiver_flagged(self):
        graph = build_graph([facts_for("repro/x.py", """\
            def go(streams):
                return streams.get("mystery")
            """)])
        violations = check_streams(graph, self.POLICY)
        assert [v.rule for v in violations] == ["RPR102"]
        assert "not in the ownership registry" in violations[0].message

    def test_plain_dict_get_is_not_a_stream_use(self):
        graph = build_graph([facts_for("repro/x.py", """\
            def go(options):
                return options.get("color")
            """)])
        assert check_streams(graph, self.POLICY) == []

    def test_registered_stream_on_renamed_receiver_still_checked(self):
        graph = build_graph([facts_for("repro/x.py", """\
            def go(rng_source):
                return rng_source.get("pump")
            """)])
        violations = check_streams(graph, self.POLICY)
        assert [v.rule for v in violations] == ["RPR102"]
        assert "repro.owner" in violations[0].message


# --------------------------------------------------------------------- #
# Incremental cache
# --------------------------------------------------------------------- #
def _write_tree(root: Path) -> None:
    (root / "repro" / "cluster").mkdir(parents=True)
    (root / "repro" / "reliability").mkdir(parents=True)
    (root / "repro" / "config.py").write_text(textwrap.dedent("""\
        class SystemConfig:
            duration_s: float
            orphan_knob: float
        """), encoding="utf-8")
    (root / "repro" / "reliability" / "simulation.py").write_text(
        "def run_fast(config):\n    return config.duration_s\n",
        encoding="utf-8")
    (root / "repro" / "cluster" / "farm.py").write_text(
        "def run_process(config):\n    return config.duration_s\n",
        encoding="utf-8")


class TestIncrementalCache:
    def test_cold_and_warm_runs_emit_identical_findings(self, tmp_path):
        tree = tmp_path / "src"
        _write_tree(tree)
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([tree], roots=[tree],
                             cache=AnalysisCache(cache_dir))
        warm = analyze_paths([tree], roots=[tree],
                             cache=AnalysisCache(cache_dir))
        assert cold.violations == warm.violations != []
        assert cold.errors == warm.errors == []
        assert warm.stats["cache_hits"] == warm.stats["files"] == 3
        assert cold.stats["cache_hits"] == 0

    def test_analyzer_fingerprint_invalidates_entries(self, tmp_path):
        cache = AnalysisCache(tmp_path, fingerprint="v1")
        cache.store("f.py", source_digest("x = 1\n"), None, [])
        cache.save()
        stale = AnalysisCache(tmp_path, fingerprint="v2")
        assert stale.lookup("f.py", source_digest("x = 1\n")) is None

    def test_changed_only_reports_only_modified_files(self, tmp_path):
        tree = tmp_path / "src"
        _write_tree(tree)
        cache_dir = tmp_path / "cache"
        analyze_paths([tree], roots=[tree],
                      cache=AnalysisCache(cache_dir))
        victim = tree / "repro" / "cluster" / "farm.py"
        victim.write_text(
            "def run_process(config, duration_s=9.0):\n"
            "    return (config.duration_s, duration_s)\n",
            encoding="utf-8")
        result = analyze_paths([tree], roots=[tree],
                               cache=AnalysisCache(cache_dir))
        assert result.changed_paths == {str(victim)}
        changed = restrict_to_changed(result)
        assert changed and all(v.path == str(victim) for v in changed)
        assert any(v.rule == "RPR104" for v in changed)
        # the full result still carries the unchanged files' findings
        assert len(result.violations) > len(changed)


# --------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------- #
class TestBaseline:
    def test_fingerprint_is_line_independent(self):
        a = Violation("src/x.py", 10, 0, "RPR101", "msg")
        b = Violation("src/x.py", 99, 4, "RPR101", "msg")
        c = Violation("src/x.py", 10, 0, "RPR101", "other msg")
        assert violation_fingerprint(a) == violation_fingerprint(b)
        assert violation_fingerprint(a) != violation_fingerprint(c)

    def test_roundtrip_suppresses_recorded_findings(self, tmp_path):
        known = Violation("src/x.py", 10, 0, "RPR104", "field unread")
        fresh = Violation("src/y.py", 2, 0, "RPR102", "stray stream")
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text(render_baseline([known]),
                                 encoding="utf-8")
        accepted = load_baseline(baseline_file)
        remaining, matched = apply_baseline([known, fresh], accepted)
        assert remaining == [fresh]
        assert matched == 1


# --------------------------------------------------------------------- #
# Internal-error containment
# --------------------------------------------------------------------- #
class TestInternalErrors:
    def test_analyzer_crash_is_reported_not_raised(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "fine.py").write_text("X = 1\n", encoding="utf-8")
        bomb = tree / "bomb.py"
        bomb.write_text("x = " + "+".join(["1"] * 30000) + "\n",
                        encoding="utf-8")
        result = analyze_paths([tree], roots=[tree])
        assert [e.path for e in result.errors] == [str(bomb)]
        assert "RecursionError" in result.errors[0].message
        assert result.violations == []   # fine.py still analyzed clean
