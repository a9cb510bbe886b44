"""Command-line behavior: outputs, determinism, exit codes, overrides."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mmdesign

from mmdesign import cli
from mmdesign.cli import ExperimentConfig, grid_header, main, write_csv
from mmdesign.criteria import (LocalOptTable, make_grid, min_phi_a, min_re, min_rg, p_grid,
                               theta_to_angles)
from mmdesign.designs import load_design, random_design
from mmdesign.errors import ConfigurationError
from mmdesign.glsmodel import DriftSpec, Evaluator, NoiseSpec
from mmdesign.util import fmt_float, mean_and_stderr, parallel_map, resolve_threads


def write_config(tmp_path, **overrides):
    data = {"q_types": 1, "length": 12, "isi": 4.0, "tr": 2.0, "rho": 0.3,
            "p_step": 1.5, "phi_step": 0.25 * math.pi,
            "out": str(tmp_path / "out"),
            "ga": {"population_size": 10, "crossover_pairs": 4,
                   "max_evaluations": 40}}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def write_design(tmp_path, labels, name="design.txt"):
    path = tmp_path / name
    path.write_text(" ".join(str(x) for x in labels) + "\n", encoding="utf-8")
    return str(path)


def make_tiny_table(tmp_path, cfg_path):
    """Cover the tiny config's zero-extended grid with one design's values."""
    cfg = ExperimentConfig.load(cfg_path)
    grid = make_grid(cfg.q_types, "search", include_zero=True,
                     p_step=cfg.p_step, phi_step=cfg.phi_step)
    ev = Evaluator(q_types=cfg.q_types, n_slots=cfg.length, isi=cfg.isi, tr=cfg.tr,
                   noise=NoiseSpec(rho=cfg.rho), drift=DriftSpec(order=cfg.drift_order))
    d = random_design(cfg.q_types, cfg.length, cfg.isi, seed=99)
    table = LocalOptTable(q_types=cfg.q_types, isi=cfg.isi)
    for th, p in grid.points():
        table.put(th, p, max(ev.phi_a(d, th, p), 1e-9), d)
    path = tmp_path / "table.json"
    table.save(path)
    return str(path)


# -- util helpers ---------------------------------------------------------------

def test_fmt_float_is_deterministic():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(1.0) == "1"
    assert fmt_float(1.0 / 3.0) == "0.333333333333"


def test_mean_and_stderr():
    mean, se = mean_and_stderr([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert se == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert mean_and_stderr([5.0]) == (5.0, 0.0)
    with pytest.raises(ValueError):
        mean_and_stderr([])


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(lambda x: x * x, items, threads=4) == [x * x for x in items]
    assert parallel_map(lambda x: x * x, items, threads=1) == [x * x for x in items]


def test_resolve_threads():
    assert resolve_threads(3) == 3
    with pytest.raises(ConfigurationError):
        resolve_threads(0)


# -- config ----------------------------------------------------------------------

def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = write_config(tmp_path, mystery=1)
    with pytest.raises(ConfigurationError, match="mystery"):
        ExperimentConfig.load(cfg_path)


def test_config_rejects_unknown_ga_keys(tmp_path):
    cfg_path = write_config(tmp_path, ga={"popsize": 3})
    with pytest.raises(ConfigurationError, match="popsize"):
        ExperimentConfig.load(cfg_path)


def test_config_seed_list_and_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, seeds=[3, 4])
    cfg = ExperimentConfig.load(cfg_path)
    assert cfg.seeds == (3, 4)
    assert json.dumps(cfg.to_json_dict())  # serializable
    bad = write_config(tmp_path, seeds=[])
    with pytest.raises(ConfigurationError):
        ExperimentConfig.load(bad)


# -- generate ---------------------------------------------------------------------

def test_generate_block(tmp_path, capsys):
    out = str(tmp_path / "block.txt")
    rc = main(["generate", "block", "--q", "1", "--length", "16", "--isi", "4",
               "--block-size", "4", "-o", out])
    assert rc == 0
    assert Path(out).read_text() == "0 0 0 0 1 1 1 1 0 0 0 0 1 1 1 1\n"


def test_generate_mseq_reports_recurrence(tmp_path, capsys):
    out = str(tmp_path / "mseq.txt")
    rc = main(["generate", "mseq", "--q", "1", "--length", "63", "--isi", "4",
               "-o", out])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "GF(2)" in msg and "degree 6" in msg and "period 63" in msg
    d = load_design(out, q_types=1, isi=4.0)
    assert len(d) == 63
    assert sum(d.labels) == 32


def test_generate_random_is_reproducible(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    args = ["generate", "random", "--q", "2", "--length", "20", "--isi", "4",
            "--seed", "9"]
    assert main(args + ["-o", a]) == 0
    assert main(args + ["-o", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_generate_constrained_random(tmp_path):
    out = str(tmp_path / "cr.txt")
    rc = main(["generate", "constrained-random", "--q", "1", "--length", "132",
               "--isi", "2.5", "--seed", "0", "-o", out])
    assert rc == 0
    d = load_design(out, q_types=1, isi=2.5)
    assert d.labels.count(1) == 66


@pytest.mark.parametrize("length, isi", [(60, 4.0), (30, 2.0)])
def test_generate_constrained_random_default_window_follows_isi(tmp_path, length, isi):
    # a fixed 4.9-5.1 s default window once made every ISI-4 call reject
    # 10,000 permutations and exit 4; the default is now the mean gap +/- 2%
    out = str(tmp_path / "cr.txt")
    assert main(["generate", "constrained-random", "--length", str(length), "--isi", str(isi),
                 "--seed", "4", "-o", out]) == 0
    onsets = np.nonzero(np.array(load_design(out, q_types=1, isi=isi).labels) == 1)[0]
    mean_gap = float(np.mean(np.diff(onsets))) * isi
    assert 0.98 * 2 * isi <= mean_gap <= 1.02 * 2 * isi


def test_generate_constrained_random_default_window_at_isi_2_5(tmp_path):
    # at ISI 2.5 s and half rest the default is the two-run example's window
    base = ["generate", "constrained-random", "--length", "132", "--isi", "2.5",
            "--seed", "3", "-o"]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(base + [a]) == 0
    assert main(base + [b, "--gap-min", "4.9", "--gap-max", "5.1"]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_generate_cyclic(tmp_path):
    short = write_design(tmp_path, [1, 0, 2], name="short.txt")
    out = str(tmp_path / "cyc.txt")
    rc = main(["generate", "cyclic", "--q", "2", "--length", "6", "--isi", "4",
               "--short", short, "-o", out])
    assert rc == 0
    assert Path(out).read_text() == "1 0 2 2 0 1\n"


def test_generate_cyclic_needs_short(tmp_path, capsys):
    rc = main(["generate", "cyclic", "--q", "2", "--length", "6", "--isi", "4",
               "-o", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_generate_json_format(tmp_path):
    out = str(tmp_path / "d.json")
    rc = main(["generate", "block", "--q", "2", "--length", "10", "--isi", "4",
               "--block-size", "4", "-o", out])
    assert rc == 0
    obj = json.loads(Path(out).read_text())
    assert obj["labels"] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    d = load_design(out)
    assert d.q_types == 2 and d.isi == 4.0


# -- evaluate ---------------------------------------------------------------------

def test_evaluate_writes_grid_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    design = write_design(tmp_path, random_design(1, 12, 4.0, seed=1).labels)
    rc = main(["evaluate", design, "--config", cfg])
    assert rc == 0
    out = tmp_path / "out"
    lines = (out / "evaluation.csv").read_text().splitlines()
    assert lines[0] == "p1,p6,theta_1,phi_a"
    assert len(lines) == 1 + 9  # 3 x 3 parameter grid, single direction
    assert lines[1].startswith("6,0,1,")
    summary = json.loads((out / "evaluation.json").read_text())
    assert summary["grid_points"] == 9
    assert summary["min_phi_a"]["value"] > 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert "started" in meta and "numpy" in meta
    assert "min phi_a" in capsys.readouterr().out


def test_evaluate_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    design = write_design(tmp_path, random_design(1, 12, 4.0, seed=2).labels)
    assert main(["evaluate", design, "--config", cfg]) == 0
    out = tmp_path / "out"
    first_csv = (out / "evaluation.csv").read_bytes()
    first_json = (out / "evaluation.json").read_bytes()
    assert main(["evaluate", design, "--config", cfg]) == 0
    assert (out / "evaluation.csv").read_bytes() == first_csv
    assert (out / "evaluation.json").read_bytes() == first_json


def test_evaluate_rest_only_design_is_fine(tmp_path, capsys):
    cfg = write_config(tmp_path)
    design = write_design(tmp_path, [0] * 12)
    assert main(["evaluate", design, "--config", cfg]) == 0
    assert "min phi_a 0" in capsys.readouterr().out


def test_evaluate_with_table_adds_re_column(tmp_path, capsys):
    cfg = write_config(tmp_path)
    table = make_tiny_table(tmp_path, cfg)
    design = write_design(tmp_path, random_design(1, 12, 4.0, seed=3).labels)
    rc = main(["evaluate", design, "--config", cfg, "--table", table])
    assert rc == 0
    lines = (tmp_path / "out" / "evaluation.csv").read_text().splitlines()
    assert lines[0] == "p1,p6,theta_1,phi_a,re"
    assert len(lines) == 1 + 18  # zero direction included
    summary = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    assert "min_re" in summary
    assert "min re" in capsys.readouterr().out


def test_evaluate_table_coverage_failure(tmp_path, capsys):
    cfg = write_config(tmp_path)
    table = make_tiny_table(tmp_path, cfg)
    bigger = write_config(tmp_path, p_step=1.0)
    design = write_design(tmp_path, random_design(1, 12, 4.0, seed=4).labels)
    rc = main(["evaluate", design, "--config", bigger, "--table", table])
    assert rc == 2
    assert "does not cover" in capsys.readouterr().err


# -- exit codes ---------------------------------------------------------------------

def test_exit_code_missing_design(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["evaluate", str(tmp_path / "nope.txt"), "--config", cfg])
    assert rc == 3


def test_exit_code_malformed_design(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 x 1\n", encoding="utf-8")
    rc = main(["evaluate", str(bad), "--config", cfg])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


def test_exit_code_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, mystery=1)
    design = write_design(tmp_path, [1, 0] * 6)
    assert main(["evaluate", design, "--config", cfg]) == 2
    assert main(["evaluate", design, "--config", write_config(tmp_path, threads=2)]) == 2
    notjson = tmp_path / "broken.json"
    notjson.write_text("{", encoding="utf-8")
    assert main(["evaluate", design, "--config", str(notjson)]) == 2


def run_cli(args, cwd=None):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mmdesign.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "mmdesign.cli", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


def assert_clean_exit(result, code):
    rc, err = result
    assert rc == code, err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_exit_code_zero_threads(tmp_path):
    out = tmp_path / "out"
    result = run_cli(["search-maximin", "--config", write_config(tmp_path), "--threads", "0",
                      "--out", str(out)])
    assert_clean_exit(result, 2)
    assert result[1].strip() == "error: thread count must be >= 1 (got 0)"
    assert not out.exists()


def test_exit_code_generate_zero_threads(tmp_path):
    # generate runs on one thread and declares no --threads, so argparse
    # rejects the flag before anything is written
    out = tmp_path / "r.txt"
    rc, err = run_cli(["generate", "random", "--length", "12", "--threads", "0",
                       "-o", str(out)])
    assert rc == 2, err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "mmdesign: error: unrecognized arguments: --threads 0"
    assert not out.exists()


def test_exit_code_nan_isi(tmp_path):
    out = tmp_path / "r.txt"
    assert_clean_exit(run_cli(["generate", "random", "--q", "1", "--length", "12",
                               "--isi", "nan", "-o", str(out)]), 2)
    assert not out.exists()
    cfg = write_config(tmp_path)
    design = write_design(tmp_path, [1, 0] * 6)
    assert_clean_exit(run_cli(["evaluate", design, "--config", cfg, "--isi", "nan"]), 2)


def test_exit_code_infinite_tr(tmp_path):
    cfg = write_config(tmp_path)
    design = write_design(tmp_path, [1, 0] * 6)
    assert_clean_exit(run_cli(["evaluate", design, "--config", cfg, "--tr", "inf"]), 2)


@pytest.mark.parametrize("args", [
    ["evaluate", "DESIGN", "--q", "1", "--length", "8", "--tr", "1e-10"],
    ["evaluate", "DESIGN", "--q", "1", "--length", "8", "--isi", "1e-10"],
    ["search-maximin", "--q", "1", "--length", "8", "--tr", "1e-10"],
])
def test_exit_code_timing_rounding_to_zero(tmp_path, args):
    # an ISI or TR below the 1e-9 tolerance has no rational common measure
    design = write_design(tmp_path, [1, 0] * 4)
    args = [design if a == "DESIGN" else a for a in args]
    result = run_cli([*args, "--out", str(tmp_path / "out")])
    assert_clean_exit(result, 2)
    assert "no rational common measure" in result[1]


@pytest.mark.parametrize("field, value", [
    ("labels", "1201"), ("labels", [1, 1.7, 0, 1]), ("labels", [1, True, 0, 1]),
    ("q", 2.9), ("q", True), ("isi", "4"), ("isi", math.nan),
])
def test_exit_code_mistyped_json_design(tmp_path, field, value):
    # a JSON design's fields are checked, not coerced: a string of labels, a
    # fractional or bool q or label, a string or NaN isi each exit 3 naming it
    obj = {"q": 2, "isi": 4.0, "labels": [1, 2, 0, 1], field: value}
    design = tmp_path / "d.json"
    design.write_text(json.dumps(obj), encoding="utf-8")
    result = run_cli(["evaluate", str(design), "--config", write_config(tmp_path, q_types=2,
                                                                        length=4)])
    assert_clean_exit(result, 3)
    assert repr(field) in result[1]


@pytest.mark.parametrize("command", ["evaluate", "search-maximin"])
@pytest.mark.parametrize("key, value", [("phi_step", 0), ("phi_step", -0.1),
                                        ("phi_step", math.nan), ("p_step", math.nan),
                                        ("p_step", math.inf), ("run_shift", math.nan),
                                        ("run_shift", math.inf)])
def test_exit_code_bad_grid_step_or_run_shift(tmp_path, command, key, value):
    # a step that is not finite and positive makes an endless grid axis, and a
    # NaN run shift zeroes the second run; json writes NaN/Infinity literals
    cfg = write_config(tmp_path, q_types=2, runs=2, isi=2.5, tr=2.5, **{key: value})
    design = write_design(tmp_path, [1, 2, 0] * 4)
    args = ["evaluate", design] if command == "evaluate" else [command]
    result = run_cli([*args, "--config", cfg])
    assert_clean_exit(result, 2)
    assert key in result[1]


@pytest.mark.parametrize("command", ["evaluate", "search-maximin"])
@pytest.mark.parametrize("q, key", [(1, "p_step"), (2, "phi_step")])
def test_exit_code_tiny_grid_step(tmp_path, command, q, key):
    # a finite positive but tiny step once looped for billions of axis values
    cfg = write_config(tmp_path, q_types=q, **{key: 1e-9})
    design = write_design(tmp_path, [1, 0] * 6 if q == 1 else [1, 2, 0] * 4)
    args = ["evaluate", design] if command == "evaluate" else [command]
    result = run_cli([*args, "--config", cfg])
    assert_clean_exit(result, 2)
    assert key in result[1] and "more than 1000 values" in result[1]


@pytest.mark.parametrize("fault", ["missing_key", "wrong_type"])
def test_exit_code_malformed_table_row(tmp_path, fault):
    cfg = write_config(tmp_path)
    table = make_tiny_table(tmp_path, cfg)
    rows = json.loads(Path(table).read_text(encoding="utf-8"))
    if fault == "missing_key":
        del rows[3]["p"]
    else:
        rows[3]["phi_a"] = "big"
    with open(table, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    design = write_design(tmp_path, [1, 0] * 6)
    result = run_cli(["evaluate", design, "--config", cfg, "--table", table])
    assert_clean_exit(result, 3)
    assert "row 3" in result[1]


@pytest.mark.parametrize("command", ["evaluate", "search-mme"])
def test_exit_code_unreadable_table(tmp_path, command):
    cfg = write_config(tmp_path)
    args = [command, "--config", cfg, "--table", str(tmp_path / "no_table.json")]
    if command == "evaluate":
        args.insert(1, write_design(tmp_path, [1, 0] * 6))
    assert_clean_exit(run_cli(args), 3)


@pytest.mark.parametrize("key, value", [
    ("ga.population_size", "x"),
    ("seeds", ["x"]),
    ("length", "8"),
    ("p_step", "0.5"),
    ("q_types", 1.5),
])
def test_exit_code_mistyped_config(tmp_path, key, value):
    bad = {"ga": {"population_size": value}} if key.startswith("ga.") else {key: value}
    cfg = write_config(tmp_path, **bad)
    result = run_cli(["search-maximin", "--config", cfg])
    assert_clean_exit(result, 2)
    assert repr(key) in result[1]


@pytest.mark.parametrize("bad_file, code", [("design", 3), ("table", 3), ("config", 2)])
def test_exit_code_non_utf8_file(tmp_path, bad_file, code):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe 1 0 1")
    files = {"design": write_design(tmp_path, [1, 0] * 6),
             "table": make_tiny_table(tmp_path, write_config(tmp_path)),
             "config": write_config(tmp_path)}
    files[bad_file] = str(bad)
    result = run_cli(["evaluate", files["design"], "--config", files["config"],
                      "--table", files["table"]])
    assert_clean_exit(result, code)
    assert "bad.bin" in result[1]


@pytest.mark.parametrize("args, key", [
    (["search-maximin", "--seed", "-1"], "seeds"),
    (["build-table", "--seed", "-4"], "seeds"),
    (["example-miezin", "--seed", "-2"], "seeds"),
    (["generate", "random", "--seed", "-1"], "seeds"),
    (["generate", "random", "--q", "-1"], "q_types"),
    (["search-maximin", "--q", "0"], "q_types"),
    (["search-maximin", "--length", "-5"], "length"),
    # one search per seed: a repeat would run twice and write two rows for
    # one design file
    (["search-maximin", "--seed", "1", "--seed", "1"], "seeds must be distinct"),
])
def test_exit_code_negative_seed_or_size(tmp_path, args, key):
    result = run_cli([*args, "--out", str(tmp_path / "out")])
    assert_clean_exit(result, 2)
    assert key in result[1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["generate", "random", "--length", "12"], ["build-table"]])
@pytest.mark.parametrize("through", ["flags", "config"])
def test_exit_code_one_seed_commands_reject_more(tmp_path, command, through):
    # generate makes one design and build-table one table: a second seed
    # would be ignored, so it is refused before anything is written
    out = tmp_path / "out"
    seeds = ["--seed", "3", "--seed", "4"] if through == "flags" else [
        "--config", write_config(tmp_path, seeds=[3, 4])]
    result = run_cli([*command, *seeds, "--out", str(out)])
    assert_clean_exit(result, 2)
    assert result[1].strip() == f"error: {command[0]} takes one seed (got [3, 4])"
    assert not out.exists()


@pytest.mark.parametrize("output", ["", "."])
def test_exit_code_generate_unwritable_output(tmp_path, output):
    result = run_cli(["generate", "random", "--length", "12", "-o", output], cwd=tmp_path)
    assert_clean_exit(result, 2)
    assert result[1].startswith("error: cannot write output: ")
    assert os.listdir(tmp_path) == []


OUT_COMMANDS = {"evaluate": ["d.txt"], "compare": ["d.txt", "--rg"], "search-maximin": [],
                "search-mme": ["--table", "table.json"], "build-table": [], "example-miezin": []}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_exit_code_output_directory_is_a_file(tmp_path, monkeypatch, command):
    # the output directory is made before any scoring or search starts, so
    # an --out naming a regular file ends the command at once with one line
    cfg_path = write_config(tmp_path, q_types=2)
    write_design(tmp_path, [1, 0, 2] * 4, "d.txt")
    make_tiny_table(tmp_path, cfg_path)
    taken = tmp_path / "taken"
    taken.write_text("x\n", encoding="utf-8")
    args = [command, *(str(tmp_path / a) if "." in a else a for a in OUT_COMMANDS[command]),
            "--config", cfg_path, "--out", str(taken)]
    result = run_cli(args)
    assert_clean_exit(result, 2)
    assert result[1].startswith("error: cannot write output: ") and str(taken) in result[1]

    def work(*args, **kwargs):
        raise AssertionError("work started before the output directory was made")

    for name in ("_score", "ga_search", "build_local_opt_table"):
        monkeypatch.setattr(cli, name, work)
    assert main(args) == 2
    assert taken.read_text(encoding="utf-8") == "x\n"


def test_exit_code_out_of_memory(tmp_path, monkeypatch, capsys):
    # a height grid too fine for memory (e.g. --isi 0.001 --tr 0.002) fails
    # while allocating the Gram tables; the allocation is only simulated here
    def exhausted(self):
        raise MemoryError("Unable to allocate 22.9 GiB for an array with shape "
                          "(3, 32001, 32001) and data type float64")

    monkeypatch.setattr(Evaluator, "_gram_tables", property(exhausted))
    design = write_design(tmp_path, [1, 0] * 6)
    assert main(["evaluate", design, "--config", write_config(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 22.9 GiB for an array with "
                   "shape (3, 32001, 32001) and data type float64\n")


def test_exit_code_config_seed_and_size(tmp_path):
    design = write_design(tmp_path, [1, 0] * 6)
    for key, value in (("seeds", [0, -3]), ("seeds", [3, 0, 3]), ("q_types", 0),
                       ("length", 0)):
        cfg = write_config(tmp_path, **{key: value})
        result = run_cli(["evaluate", design, "--config", cfg])
        assert_clean_exit(result, 2)
        assert key in result[1]
    result = run_cli(["evaluate", design, "--config", write_config(tmp_path), "--q", "0"])
    assert_clean_exit(result, 2)
    assert "q_types" in result[1]


@pytest.mark.parametrize("args", [
    ["mseq", "--degree", "0"],
    ["mseq", "--degree", "-1"],
    ["constrained-random", "--zero-fraction", "nan"],
    ["constrained-random", "--zero-fraction", "inf"],
    # fewer than two onsets leave no gap: exit at once, not after 10,000 tries
    ["constrained-random", "--zero-fraction", "1"],
    ["constrained-random", "--length", "60", "--zero-fraction", "0.99"],
    # the config's noise spec is checked for every command, generate included
    ["random", "--config", {"rho": 1}],
    ["random", "--config", {"runs": 3}],
    # an empty or NaN gap window exits at once, not after 10,000 tries
    ["constrained-random", "--gap-min", "9", "--gap-max", "8"],
    ["constrained-random", "--gap-min", "nan"],
])
def test_exit_code_bad_generate_value(tmp_path, args):
    # a dict stands for a config file with those keys
    args = [write_config(tmp_path, **a) if isinstance(a, dict) else a for a in args]
    out = tmp_path / "d.txt"
    assert_clean_exit(run_cli(["generate", *args, "-o", str(out)]), 2)
    assert not out.exists()


# the options each subcommand declares, beside --config, --out and -h
SUBCOMMAND_FLAGS = {
    "evaluate": "--table --q --length --isi --tr --rho --runs",
    "search-maximin": "--seed --space --threads --q --length --isi --tr --rho --runs --budget",
    "search-mme": "--seed --space --table --threads --q --length --isi --tr --rho --runs "
                  "--budget",
    "build-table": "--seed --space --table --threads --q --length --isi --tr --rho --runs "
                   "--budget",
    "generate": "--seed --q --length --isi --block-size --degree --zero-fraction --gap-min "
                "--gap-max --short --output",
    "example-miezin": "--seed --space --threads --budget --n-random",
    "compare": "--table --threads --q --length --isi --tr --rho --runs --rg",
}

# flags that once reached every subcommand whether or not it read them
REMOVED_FLAGS = [(command, flag) for command, flags in {
    "evaluate": "--grid --seed --space --threads",
    "search-maximin": "--grid --table",
    "search-mme": "--grid",
    "build-table": "--grid",
    "generate": "--grid --space --table --threads --tr --rho --runs",
    "example-miezin": "--grid --table",
    "compare": "--grid --seed --space",
}.items() for flag in flags.split()]

POSITIONALS = {"evaluate": ["d.txt"], "generate": ["random"], "compare": ["d.txt"]}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_subcommand_declares_only_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    declared = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert declared == {"--help", "--config", "--out", *SUBCOMMAND_FLAGS[command].split()}


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flag_exits_via_argparse(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *POSITIONALS.get(command, []), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["grid", "report_grid"])
def test_exit_code_dropped_grid_keys(tmp_path, key):
    # each command names its preset; p_step and phi_step adjust both
    result = run_cli(["search-maximin", "--config", write_config(tmp_path, **{key: "search"})])
    assert_clean_exit(result, 2)
    assert result[1].strip() == f"error: unknown config keys: {key}"


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
@pytest.mark.parametrize("key, value, message", [
    ("drift_order", -1, "drift order"), ("region", "foo", "region"),
    ("space", "foo", "space"), ("ga.population_size", 1, "population_size"),
])
def test_exit_code_bad_config_key_for_every_command(tmp_path, capsys, command, key, value,
                                                    message):
    # every key is checked at load, whether or not the command reads it
    bad = {"ga": {"population_size": value}} if key.startswith("ga.") else {key: value}
    cfg = write_config(tmp_path, **bad)
    design = write_design(tmp_path, [1, 0] * 6, "d.txt")
    positionals = [design if a == "d.txt" else a for a in POSITIONALS.get(command, [])]
    assert main([command, *positionals, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["search-maximin", "--q", "1", "--length", "3"],                     # 2^3 = 8 genomes
    ["build-table", "--q", "3", "--length", "6", "--space", "xi0"],      # 4^2 = 16
])
def test_exit_code_search_space_smaller_than_population(tmp_path, args):
    # the initial population's distinct-genome fill once looped for ever here
    result = run_cli([*args, "--budget", "20", "--out", str(tmp_path / "out")])
    assert_clean_exit(result, 2)
    assert "fewer than population_size 20" in result[1]


def test_evaluate_design_shorter_than_population(tmp_path):
    # the GA settings are checked at load, but the space size only by a search
    cfg = write_config(tmp_path, length=3)
    assert main(["evaluate", write_design(tmp_path, [1, 0, 1]), "--config", cfg]) == 0


def test_exit_code_no_random_competitors(tmp_path):
    result = run_cli(["example-miezin", "--budget", "20", "--n-random", "0",
                      "--out", str(tmp_path / "out")])
    assert_clean_exit(result, 2)
    assert "--n-random" in result[1]


def test_unknown_flag_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "x.txt", "--fancy"])
    assert exc.value.code == 2


# -- searches -------------------------------------------------------------------------

def test_search_maximin_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["search-maximin", "--config", cfg, "--seed", "0", "--seed", "1"])
    assert rc == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["criterion"] == "min_phi_a"
    assert [row["seed"] for row in summary["per_seed"]] == [0, 1]
    assert summary["stats"]["max"] >= summary["stats"]["mean"]
    assert (out / "designs" / "seed_0.txt").exists()
    assert (out / "designs" / "seed_1.txt").exists()
    best = (out / "best_design.txt").read_text()
    seeds = {(out / "designs" / f"seed_{s}.txt").read_text() for s in (0, 1)}
    assert best in seeds
    first = (out / "summary.json").read_bytes()
    assert main(["search-maximin", "--config", cfg, "--seed", "0", "--seed", "1"]) == 0
    assert (out / "summary.json").read_bytes() == first


def test_search_maximin_threads_do_not_change_result(tmp_path):
    # with --threads 4 the three seeds' searches run side by side on one
    # shared evaluator; the thread count lives in run_meta only
    cfg = write_config(tmp_path, seeds=[0, 1, 2])
    out = tmp_path / "out"
    files = ["summary.json", *(f"designs/seed_{s}.txt" for s in (0, 1, 2))]
    outputs = []
    for threads in ("1", "4"):
        assert main(["search-maximin", "--config", cfg, "--threads", threads]) == 0
        outputs.append([(out / f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]


def test_search_maximin_rg_bound_covers_the_report_grid(tmp_path):
    # as in `compare --rg`, min_rg is taken over the report grid's p points;
    # it once used the default comparison p grid whatever p_step said
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"q_types": 2, "length": 60, "p_step": 0.5,
                                    "out": str(tmp_path / "out")}), encoding="utf-8")
    assert main(["search-maximin", "--config", str(cfg_path), "--seed", "2",
                 "--budget", "40"]) == 0
    cfg = ExperimentConfig.load(str(cfg_path))
    out = tmp_path / "out"
    reported = json.loads((out / "summary.json").read_text())["per_seed"][0]["min_rg"]
    d = load_design(str(out / "best_design.txt"), q_types=2, isi=cfg.isi)
    args = (cfg.tr, cfg.noise(), cfg.drift())
    assert reported == min_rg(d, cfg.make_grid("comparison").ps, *args)
    assert reported != min_rg(d, p_grid(0.1), *args)


def test_search_maximin_budget_flag(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["search-maximin", "--config", cfg, "--seed", "0", "--budget", "25"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["per_seed"][0]["evaluations"] <= 25


def test_search_mme_requires_and_uses_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["search-mme", "--config", cfg, "--seed", "0"]) == 2
    table = make_tiny_table(tmp_path, cfg)
    rc = main(["search-mme", "--config", cfg, "--seed", "0", "--table", table])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["criterion"] == "min_re"
    assert summary["table_entries"] == 18
    assert summary["best_min_re"] > 0


def test_seed_override_precedence(tmp_path):
    cfg = write_config(tmp_path, seeds=[5])
    assert main(["search-maximin", "--config", cfg, "--seed", "9"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["seeds"] == [9]
    assert [row["seed"] for row in summary["per_seed"]] == [9]


def test_model_override_precedence(tmp_path):
    cfg = write_config(tmp_path, length=10)
    assert main(["search-maximin", "--config", cfg, "--seed", "0",
                 "--length", "12"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["length"] == 12


# -- build-table ------------------------------------------------------------------------

def test_build_table_writes_and_merges(tmp_path, capsys):
    cfg = write_config(tmp_path)
    table_path = str(tmp_path / "out" / "table.json")
    rc = main(["build-table", "--config", cfg, "--budget", "30"])
    assert rc == 0
    raw = json.loads(Path(table_path).read_text())
    assert isinstance(raw, list)
    grid = make_grid(1, "search", include_zero=True, p_step=1.5,
                     phi_step=0.25 * math.pi)
    assert len(raw) == grid.n_points
    first = Path(table_path).read_bytes()
    capsys.readouterr()
    rc = main(["build-table", "--config", cfg, "--budget", "30"])
    assert rc == 0
    assert "merging into existing table" in capsys.readouterr().out
    assert Path(table_path).read_bytes() == first


def test_build_table_threads_do_not_change_table(tmp_path):
    # the points run in order whatever --threads says, since each is
    # warm-started from the previous point's winner
    cfg = write_config(tmp_path)
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        assert main(["build-table", "--config", cfg, "--budget", "30",
                     "--threads", threads, "--out", str(out)]) == 0
        tables.append((out / "table.json").read_bytes())
    assert tables[0] == tables[1]


# -- compare ----------------------------------------------------------------------------

def test_compare_ranks_designs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    good = write_design(tmp_path, random_design(1, 12, 4.0, seed=5).labels, "good.txt")
    rest = write_design(tmp_path, [0] * 12, "rest.txt")
    rc = main(["compare", good, rest, "--config", cfg])
    assert rc == 0
    out = tmp_path / "out"
    summary = json.loads((out / "comparison.json").read_text())
    assert summary["ranking"][0] == "good"
    assert summary["criterion"] == "min_phi_a"
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "design,p1,p6,theta_1,phi_a"
    assert len(lines) == 1 + 2 * 9
    assert lines[1].startswith("good,")


@pytest.mark.parametrize("same_file", [False, True])
def test_compare_rejects_two_designs_of_one_name(tmp_path, capsys, same_file):
    # comparison.csv and the ranking tell designs apart by file name alone
    cfg = write_config(tmp_path)
    labels = random_design(1, 12, 4.0, seed=5).labels
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_design(tmp_path / "a", labels, "x.txt")
    second = first if same_file else write_design(tmp_path / "b", labels, "x.txt")
    assert main(["compare", first, second, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: designs {first} and {second} share the name 'x'\n"
    assert not (tmp_path / "out").exists()


def test_compare_with_rg_flag(tmp_path):
    # the reduced region of R_g has the configured amplitude step
    cfg = write_config(tmp_path, q_types=2, length=12, phi_step=0.25)
    d = random_design(2, 12, 4.0, seed=6)
    rc = main(["compare", write_design(tmp_path, d.labels, "a.txt"), "--config", cfg, "--rg"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "comparison.json").read_text())
    got = summary["designs"][0]["min_rg"]
    assert 0 < got <= 1.0
    ps = ExperimentConfig.load(cfg).make_grid("comparison").ps
    assert got == min_rg(d, ps, 2.0, NoiseSpec(rho=0.3), DriftSpec(order=2), phi_step=0.25)
    assert got != min_rg(d, ps, 2.0, NoiseSpec(rho=0.3), DriftSpec(order=2))


@pytest.fixture
def grid_calls(monkeypatch):
    """Every `Evaluator.phi_a_grid` call's direction count, in order."""
    calls = []
    original = Evaluator.phi_a_grid

    def spy(self, d, thetas, ps):
        calls.append(len(thetas))
        return original(self, d, thetas, ps)

    monkeypatch.setattr(Evaluator, "phi_a_grid", spy)
    return calls


@pytest.mark.parametrize("q, case", [
    pytest.param(q, case, id=case if q == 2 else f"q{q}-{case}")
    for q in (2, 3) for case in ("theta0", "table", "full")])
def test_compare_rg_scores_each_design_once(tmp_path, grid_calls, q, case):
    # one grid pass per design covers the report grid (with the zero
    # direction first when a table is given) and the R_g directions, in
    # their own block of directions for Q=3; the reported values are the
    # library's, bit for bit
    cfg_path = write_config(tmp_path, q_types=q, length=12,
                            **({"region": "full"} if case == "full" else {}))
    cfg = ExperimentConfig.load(cfg_path)
    table_path = make_tiny_table(tmp_path, cfg_path) if case == "table" else None
    paths = [write_design(tmp_path, random_design(q, 12, 4.0, seed=s).labels, f"d{s}.txt")
             for s in (21, 22)]
    grid_calls.clear()
    assert main(["compare", *paths, "--config", cfg_path, "--rg",
                 *(["--table", table_path] if table_path else [])]) == 0
    assert len(grid_calls) == len(paths)
    grid = cfg.make_grid("comparison", include_zero=table_path is not None)
    assert all(n > len(grid.thetas) for n in grid_calls)
    out = tmp_path / "out"
    entries = json.loads((out / "comparison.json").read_text())["designs"]
    with open(out / "comparison.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    args = (cfg.tr, cfg.noise(), cfg.drift())
    for path, entry in zip(paths, entries):
        d = load_design(path, q_types=q, isi=cfg.isi)
        values = cfg.evaluator().phi_a_grid(d, grid.thetas, grid.ps)
        assert ([r["phi_a"] for r in rows if r["design"] == entry["design"]]
                == [fmt_float(v) for v in values.ravel()])
        assert entry["min_phi_a"]["value"] == min_phi_a(d, grid, *args).value
        assert entry["mean_phi_a"] == float(values.mean())
        if table_path:
            table = LocalOptTable.load(table_path, q_types=q, isi=cfg.isi)
            assert entry["min_re"]["value"] == min_re(d, grid, table, *args).value
        assert entry["min_rg"] is not None
        assert entry["min_rg"] == min_rg(d, grid.ps, *args, phi_step=cfg.phi_step)


def test_search_maximin_scores_each_reported_design_once(tmp_path, grid_calls):
    # beside one call per fitness evaluation, one grid pass per seed gives
    # the report's min_phi_a and min_rg
    cfg_path = write_config(tmp_path, q_types=2, length=12, seeds=[0, 1])
    assert main(["search-maximin", "--config", cfg_path]) == 0
    cfg = ExperimentConfig.load(cfg_path)
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["per_seed"]
    assert len(grid_calls) == sum(row["evaluations"] for row in rows) + len(rows)
    grid, args = cfg.make_grid("comparison"), (cfg.tr, cfg.noise(), cfg.drift())
    for row in rows:
        d = load_design(str(tmp_path / "out" / "designs" / f"seed_{row['seed']}.txt"),
                        q_types=2, isi=cfg.isi)
        assert row["min_phi_a"]["value"] == min_phi_a(d, grid, *args).value
        assert row["min_rg"] == min_rg(d, grid.ps, *args, phi_step=cfg.phi_step)


@pytest.mark.parametrize("labels", [[0] * 40, [1, 0] * 20])
def test_compare_rg_reports_singular_design_as_na(tmp_path, labels):
    # a design singular somewhere on the reduced region (all rest, or type 1
    # only) has no R_g bound; the other designs keep theirs
    odd = write_design(tmp_path, labels, "odd.txt")
    good = write_design(tmp_path, random_design(2, 40, 4.0, seed=3).labels, "good.txt")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.dirname(os.path.dirname(mmdesign.__file__)) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "mmdesign.cli", "compare", odd, good,
                           "--q", "2", "--length", "40", "--rg", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "odd: min phi_a 0, min rg n/a" in proc.stdout.splitlines()
    entries = json.loads((tmp_path / "out" / "comparison.json").read_text())["designs"]
    assert entries[0]["min_rg"] is None
    assert 0 < entries[1]["min_rg"] <= 1.0


@pytest.mark.parametrize("command, stages", [
    ("evaluate", {"setup", "scoring", "report", "write"}),
    ("compare", {"setup", "scoring", "report", "write"}),
    ("search-maximin", {"setup", "search", "report", "write"}),
    ("search-mme", {"setup", "search", "report", "write"}),
    ("build-table", {"setup", "search", "write"}),
])
def test_run_meta_stage_seconds(tmp_path, command, stages):
    cfg = write_config(tmp_path)
    design = write_design(tmp_path, random_design(1, 12, 4.0, seed=4).labels)
    extra = {"evaluate": [design], "compare": [design],
             "search-mme": ["--table", make_tiny_table(tmp_path, cfg)]}.get(command, [])
    assert main([command, *extra, "--config", cfg]) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert set(meta["stage_s"]) == stages
    assert min(meta["stage_s"].values()) >= 0
    assert sum(meta["stage_s"].values()) <= meta["wall_time_s"]


def test_compare_quotes_odd_design_name(tmp_path):
    cfg = write_config(tmp_path, q_types=2, length=12)
    odd = write_design(tmp_path, random_design(2, 12, 4.0, seed=11).labels, 'a,b"c.txt')
    plain = write_design(tmp_path, random_design(2, 12, 4.0, seed=12).labels, "plain.txt")
    rc, err = run_cli(["compare", odd, plain, "--config", cfg])
    assert rc == 0, err
    out = tmp_path / "out"
    with open(out / "comparison.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_points = ExperimentConfig.load(cfg).make_grid("comparison").n_points
    assert [r["design"] for r in rows] == ['a,b"c'] * n_points + ["plain"] * n_points
    entries = json.loads((out / "comparison.json").read_text())["designs"]
    assert [e["design"] for e in entries] == ['a,b"c', "plain"]
    for e in entries:
        column = [float(r["phi_a"]) for r in rows if r["design"] == e["design"]]
        assert min(column) == float(fmt_float(e["min_phi_a"]["value"]))


def per_row_csv(header, grid, blocks):
    """The grid CSV as `csv.writer` writes it row by row, `fmt_float` per
    float cell: the reference for `write_csv`."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for name, columns in blocks:
        for i, th in enumerate(grid.thetas):
            for j, p in enumerate(grid.ps):
                row = [p.p1, p.p6, *theta_to_angles(th), *th,
                       *(float(c[i, j]) for c in columns)]
                w.writerow(([] if name is None else [name])
                           + [fmt_float(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


@pytest.mark.parametrize("named", [False, True])
@pytest.mark.parametrize("with_re", [False, True])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_write_csv_matches_per_row_writer(tmp_path, q, with_re, named):
    grid = make_grid(q, "search", include_zero=True, p_step=1.5, phi_step=0.5)
    assert grid.thetas[0] == (0.0,) * q
    rng = np.random.default_rng(q)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 123456789012.5, 1.0 / 3.0]
    names = (["plain", "a,b", 'say "hi"', "with space", "100%", "%s", "%%d", "%(x)s",
              "new\nline"] if named else [None])
    blocks = []
    for k, name in enumerate(names):
        columns = []
        for _ in range(2 if with_re else 1):
            c = rng.standard_normal(grid.n_points) * 10.0 ** rng.integers(-8, 9, grid.n_points)
            c[k:k + len(special)] = special
            columns.append(c.reshape(len(grid.thetas), len(grid.ps)))
        blocks.append((name, columns))
    header = (["design"] if named else []) + grid_header(q, with_re)
    path = tmp_path / "grid.csv"
    write_csv(str(path), header, grid, blocks)
    # line lists, so that a failure reports the first differing row quickly
    assert (path.read_bytes().decode("utf-8").splitlines(keepends=True)
            == per_row_csv(header, grid, blocks).splitlines(keepends=True))


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
def test_percent_format_matches_fmt_float(x):
    # write_csv renders the values of `ndarray.tolist()` with '%.12g'
    (value,) = np.array([x]).tolist()
    assert "%.12g" % value == fmt_float(x)


def test_compare_writes_percent_design_names_verbatim(tmp_path):
    cfg = write_config(tmp_path, q_types=2, length=12)
    stems = ["pct%s,x", "100%,%(x)s"]
    paths = [write_design(tmp_path, random_design(2, 12, 4.0, seed=20 + k).labels, f"{s}.txt")
             for k, s in enumerate(stems)]
    rc, err = run_cli(["compare", *paths, "--config", cfg])
    assert rc == 0, err
    with open(tmp_path / "out" / "comparison.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    n_points = ExperimentConfig.load(cfg).make_grid("comparison").n_points
    assert [r[0] for r in rows] == [stems[0]] * n_points + [stems[1]] * n_points


def read_csv_column(path, column, design=None):
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)
                if design is None or row["design"] == design]


@pytest.mark.parametrize("q", [1, 2])
def test_reported_minima_match_csv_and_library(tmp_path, q):
    # Q=1 through `evaluate --table`, Q=2 through `compare --table --rg` of two designs
    cfg_path = write_config(tmp_path, q_types=q, length=12)
    table_path = make_tiny_table(tmp_path, cfg_path)
    cfg = ExperimentConfig.load(cfg_path)
    table = LocalOptTable.load(table_path, q_types=q, isi=cfg.isi)
    grid = cfg.make_grid("comparison", include_zero=True)
    paths = [write_design(tmp_path, random_design(q, 12, 4.0, seed=s).labels, f"d{s}.txt")
             for s in ((7,) if q == 1 else (7, 8))]
    out = tmp_path / "out"
    if q == 1:
        assert main(["evaluate", paths[0], "--config", cfg_path, "--table", table_path]) == 0
        entries = [json.loads((out / "evaluation.json").read_text())]
        csv_path, names = out / "evaluation.csv", [None]
    else:
        assert main(["compare", *paths, "--config", cfg_path, "--table", table_path,
                     "--rg"]) == 0
        entries = json.loads((out / "comparison.json").read_text())["designs"]
        csv_path, names = out / "comparison.csv", [e["design"] for e in entries]
    args = (cfg.tr, cfg.noise(), cfg.drift())
    for path, name, entry in zip(paths, names, entries):
        d = load_design(path, q_types=q, isi=cfg.isi)
        for key, column, lib in (("min_phi_a", "phi_a", min_phi_a(d, grid, *args)),
                                 ("min_re", "re", min_re(d, grid, table, *args))):
            value = entry[key]["value"]
            assert float(fmt_float(value)) == min(read_csv_column(csv_path, column, name))
            assert value == lib.value


def test_benchmark_trace_boundaries_exist():
    # perfbench/traced.py wraps these functions by name; a renamed one would
    # leave its layer unmeasured with only a printed warning
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    code = ("import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import mmdesign.cli\n"
            "from traced import Tracer, install\n"
            "counts = {k: [] for k in ('grid_points', 'output_bytes', 'searches', 'map_tasks')}\n"
            "print(json.dumps(install(Tracer(), mmdesign.cli, counts)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.dirname(os.path.dirname(mmdesign.__file__)) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, perfbench], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# -- two-run worked example (smoke scale) -------------------------------------------------

def test_example_miezin_smoke(tmp_path, capsys):
    outdir = str(tmp_path / "out")
    rc = main(["example-miezin", "--seed", "0", "--budget", "40",
               "--n-random", "2", "--out", outdir])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary["per_design_min_phi_a"]) == {"maximin", "block", "mseq",
                                                    "random_best"}
    assert set(summary["robustness"]) == {"rho_0", "rho_0.5"}
    # at smoke budgets the fixed design can even beat the crude matched search,
    # so retention may exceed one; it just has to be a sane positive ratio
    for r in summary["robustness"].values():
        assert 0.5 < r["retained_fraction"] < 1.5
    lines = (tmp_path / "out" / "distributions.csv").read_text().splitlines()
    assert lines[0] == "design,p1,p6,theta_1,phi_a"
    assert (tmp_path / "out" / "designs" / "maximin.txt").exists()
