import json

import pytest

from bench import compare

SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher",
                        "bound": 0.10}]}

HOST = {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2"}


def runs(values, failed=0, host=HOST):
    return [{"host": host, "workloads": {"w": {
        "attempted": 100, "failed": failed,
        "metrics": {"rate": {"value": v, "unit": "1/s"}}}}}
        for v in values]


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def verdicts(base, new):
    return {r["metric"]: r["verdict"]
            for r in compare.compare_runs(base, new, SPEC)}


def test_rerun_of_same_commit_is_same():
    assert verdicts(runs(BASE), runs(BASE[::-1])) == {
        "rate": "same", "failed_frac": "same"}


def test_worse_by_more_than_bound_regresses():
    assert verdicts(runs(BASE), runs([0.85 * v for v in BASE]))["rate"] \
        == "regressed"


def test_worse_within_bound_is_not_a_regression():
    assert verdicts(runs(BASE), runs([0.95 * v for v in BASE]))["rate"] \
        == "same"


def test_gain_needs_nine_of_ten_pairs_and_more_than_base_spread():
    new = [1.05 * v for v in BASE]
    assert verdicts(runs(BASE), runs(new))["rate"] == "improved"
    # One pair of ten lost, one tied: 8/10 wins is not a gain.
    mixed = new[:8] + [BASE[8] * 0.99, BASE[9]]
    assert verdicts(runs(BASE), runs(mixed))["rate"] == "same"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0,
             100.0]
    assert verdicts(runs(BASE), runs(noisy))["rate"] == "unresolved"
    # ... unless every new run beats every base run.
    assert verdicts(runs(BASE), runs([v + 200 for v in noisy]))["rate"] \
        == "improved"


def test_any_increase_in_failed_fraction_regresses():
    assert verdicts(runs(BASE), runs(BASE, failed=1))["failed_frac"] \
        == "regressed"


def test_refuses_runs_from_different_hosts(tmp_path, capsys):
    other = dict(HOST, cpu="y")
    for name, doc in (("a", runs(BASE)), ("b", runs(BASE, host=other))):
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": doc}))
    args = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert compare.main(args, SPEC) == 2
    assert "different hosts" in capsys.readouterr().err
    assert compare.main(args + ["--force"], SPEC) == 0


@pytest.mark.parametrize("better, new, verdict", [
    ("lower", 0.8, "improved"), ("lower", 1.2, "regressed")])
def test_direction_follows_better(better, new, verdict):
    row = compare.judge(BASE, [new * v for v in BASE], better, 0.1)
    assert row["verdict"] == verdict
