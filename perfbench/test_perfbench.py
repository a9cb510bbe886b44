"""Self-check of the benchmark: run with `python3 -m pytest perfbench` from the
repository root (about a minute).

A shrunken copy of each workload must emit every metric BENCHMARK.json
names, with its unit, and the output check must reject a perturbed result.
"""

import dataclasses
import json
import os

import pytest

import run
import traced
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SMALL = {
    "search-q1": {"budget": 20},
    "search-q2": {"budget": 20},
    "table-q1": {"p_step": 2.0, "budget": 20, "n_checked": 2},
    "compare-q2": {"n_random": 1},
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == traced.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_pass_emits_every_metric(name, trace):
    result = run.run_workload(small(name), seed=7, seconds=0, trace=trace, setup_repeats=1)
    assert result["ledger"].failures == []
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: u for k, (_, u) in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v > 0 for v, _ in result["metrics"].values())


def _fresh_check(workload):
    workdir = os.path.join(run.WORK, workload.name)
    return run.Checker(workload, os.path.join(workdir, "out"), workdir)


def test_check_rejects_a_perturbed_value():
    workload = small("search-q2")
    run.run_workload(workload, seed=3, seconds=0, trace=False, setup_repeats=1)
    _, problems = _fresh_check(workload)()
    assert problems == []
    path = os.path.join(run.WORK, workload.name, "out", "summary.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["per_seed"][0]["min_phi_a"]["value"] *= 1 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    _, problems = _fresh_check(workload)()
    assert any("reference" in p for p in problems)


def test_check_rejects_a_table_that_misses_a_point():
    workload = small("table-q1")
    run.run_workload(workload, seed=3, seconds=0, trace=False, setup_repeats=1)
    path = os.path.join(run.WORK, workload.name, "out", "table.json")
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows[:-1], fh)
    _, problems = _fresh_check(workload)()
    assert any("missing" in p for p in problems)


def test_later_commands_must_repeat_the_first():
    workload = small("compare-q2")
    run.run_workload(workload, seed=3, seconds=0, trace=False, setup_repeats=1)
    check = _fresh_check(workload)
    assert check()[1] == []
    with open(os.path.join(check.outdir, "comparison.csv"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert check()[1] == ["outputs differ from the first command's"]


def test_self_times_split_overlapping_children():
    np = pytest.importorskip("numpy")
    # root [0, 10]; A [1, 4] and B [2, 6] overlap (two threads); C [2.5, 3] inside A
    sid = np.array([1, 2, 3, 4])
    starts = np.array([0.0, 1.0, 2.0, 2.5])
    ends = np.array([10.0, 4.0, 6.0, 3.0])
    parent_pos = np.array([-1, 0, 0, 1])
    shares = traced.self_times(sid, starts, ends, parent_pos)
    assert shares.tolist() == pytest.approx([5.0, 1.75, 3.0, 0.25])
    serial = traced.self_times(sid[[0, 1, 3]], starts[[0, 1, 3]], ends[[0, 1, 3]],
                               np.array([-1, 0, 1]))
    assert serial.tolist() == pytest.approx([7.0, 2.5, 0.5])
