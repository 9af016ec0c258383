"""Unit suite for the whole-program analyzer (repro.analysis v2).

Covers the infrastructure the RPR100-series rules stand on: per-module
fact collection, the project symbol table (re-export chains,
``__init__`` re-binding, dotted resolution), and internal-error
containment.
"""

import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_graph
from repro.analysis.project import analyze_paths
from repro.analysis.streams import StreamPolicy, check_streams
from repro.analysis.symbols import collect_facts
from repro.analysis.unitflow import check_units


def facts_for(relpath: str, source: str, root: str = "proj"):
    """Collect facts for an in-memory module at a virtual path."""
    return collect_facts(textwrap.dedent(source),
                         Path(root) / relpath, roots=[Path(root)])


# --------------------------------------------------------------------- #
# Symbol table
# --------------------------------------------------------------------- #
class TestProjectGraph:
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
        assert resolved.key == "repro.util:helper"


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
