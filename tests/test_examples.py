"""The examples must stay runnable (they are part of the public surface).

The heavier Monte-Carlo walkthroughs are exercised at reduced size by
importing their machinery; the fast ones run end to end as scripts.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 300.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestFastExamples:
    def test_incident_postmortem(self):
        out = run_example("incident_postmortem.py")
        assert "no data lost" in out          # FARM side
        assert "DATA LOST" in out             # traditional side
        assert "failure_rate" in out          # tornado

    def test_growing_cluster(self):
        out = run_example("growing_cluster.py")
        assert "landed on the new batch" in out
        assert "six-year lifetime" in out


class TestExampleSources:
    """All examples exist, are importable as scripts, and documented."""

    ALL = ["quickstart.py", "design_a_system.py",
           "detection_latency_study.py", "growing_cluster.py",
           "incident_postmortem.py"]

    @pytest.mark.parametrize("name", ALL)
    def test_compiles_and_has_docstring(self, name):
        source = (EXAMPLES / name).read_text()
        code = compile(source, name, "exec")
        assert code.co_consts[0], f"{name} needs a module docstring"
        assert "def main" in source
        assert "__main__" in source

    @pytest.mark.parametrize("name", ALL)
    def test_repro_imports_resolve(self, name):
        """Every name an example imports from ``repro`` exists.  Compiling
        does not resolve imports, and the slow examples never run here."""
        tree = ast.parse((EXAMPLES / name).read_text(), name)
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module.split(".")[0] == "repro"]
        assert imports, f"{name} imports nothing from repro"
        for node in imports:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{name}: {node.module} has no {alias.name}")

    def test_readme_lists_every_example(self):
        readme = (EXAMPLES.parent / "README.md").read_text()
        for name in self.ALL:
            assert name in readme
