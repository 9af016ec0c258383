"""Every tracked table in ``results/`` reproduces from the code.

Each experiment whose tables take under a minute at the scale their
headers name is rerun in-process; its rendered text must equal the
tracked file byte for byte, and the reruns must pass the findings
checks of ``tests/findings.py`` at that scale.  Nothing is written.
figure3 and figure4 take minutes at small scale, and bulk-sweep and
rare-sweep print wall-clock seconds, so those four are not rerun.
"""

import re
from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS
from repro.experiments import SCALES
from tests import findings

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: CLI experiment name -> the tracked tables it renders.
RERUN = {
    "ablations": ("ablation-placement", "ablation-policy",
                  "ablation-workload", "ablation-bathtub",
                  "ablation-mixed-scheme"),
    "faults": ("faults-sweep",),
    "figure5": ("figure5",),
    "figure7": ("figure7",),
    "figure8": ("figure8a", "figure8b"),
    "mttdl": ("mttdl",),
    "perf": ("perf-degraded",),
    "redirection": ("redirection",),
    "table1": ("table1",),
    "table3": ("table3",),
    "topology": ("topology-sweep",),
}

#: Tracked tables that are not rerun: too slow, or a wall-clock column.
NOT_RERUN = {"figure3a", "figure3b", "figure4", "bulk-sweep", "rare-sweep"}

_SCALE = re.compile(r"\[scale=(\w+), runs=\d+\] ==$")


def test_every_tracked_table_is_listed():
    tracked = {p.stem for p in RESULTS.glob("*.txt")} - {"README"}
    rerun = {name for names in RERUN.values() for name in names}
    assert not rerun & NOT_RERUN
    assert tracked == rerun | NOT_RERUN


@pytest.mark.slow
@pytest.mark.parametrize("experiment", sorted(RERUN))
def test_tracked_tables_reproduce(experiment):
    tracked = {name: (RESULTS / f"{name}.txt").read_text()
               for name in RERUN[experiment]}
    [scale] = {_SCALE.search(text.splitlines()[0]).group(1)
               for text in tracked.values()}
    results = EXPERIMENTS[experiment](SCALES[scale], 0, "naive")
    assert {r.experiment: r.render() + "\n" for r in results} == tracked
    findings.check(results)
