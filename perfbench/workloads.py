"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, names the mmdesign
command it runs, the grids its set-up covers, and how its outputs are read
and checked.  Sizes are fields, so the self-check can run a shrunken copy of
the same workload.

All workloads share the paper's single-run model: ISI 4 s, TR 2 s, AR(1)
correlation 0.3, quadratic drift.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

ISI = 4.0
TR = 2.0
RHO = 0.3
DRIFT_ORDER = 2


@dataclass(frozen=True)
class ScorePoint:
    """A reported criterion value, to be re-scored by the dense reference."""

    what: str
    q: int
    labels: tuple[int, ...]
    theta: tuple[float, ...]
    p1: float
    p6: float
    value: float


@dataclass(frozen=True)
class Outcome:
    """What one command delivered, read back from its output files."""

    loop_s: float        # the command's own wall time (run_meta.json)
    evals: int           # designs scored by the search, or compared
    designs: int         # designs the command hands to its user
    objective: float
    points: tuple[ScorePoint, ...]
    problems: tuple[str, ...]
    coverage: dict | None = None  # table keys, for the oracle to match to the grid


def _model_flags(q: int, length: int) -> list[str]:
    return ["--q", str(q), "--length", str(length), "--isi", str(ISI),
            "--tr", str(TR), "--rho", str(RHO)]


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_labels(path: str) -> tuple[int, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(int(tok) for tok in fh.read().split())


def _loop_seconds(outdir: str) -> float:
    return float(_read_json(os.path.join(outdir, "run_meta.json"))["wall_time_s"])


def _point(what: str, q: int, labels, mr: dict) -> ScorePoint:
    return ScorePoint(what=what, q=q, labels=tuple(labels),
                      theta=tuple(float(x) for x in mr["theta"]),
                      p1=float(mr["p1"]), p6=float(mr["p6"]), value=float(mr["value"]))


@dataclass(frozen=True)
class Search:
    """`search-maximin` with a fixed budget per GA seed."""

    name: str
    why: str
    q: int
    length: int
    n_seeds: int
    threads: int
    budget: int

    def prepare(self, workdir: str, outdir: str, seed: int, nproc: int) -> list[str]:
        rng = random.Random(seed)
        argv = ["search-maximin", *_model_flags(self.q, self.length)]
        for ga_seed in rng.sample(range(2 ** 31), self.n_seeds):
            argv += ["--seed", str(ga_seed)]
        return argv + ["--budget", str(self.budget),
                       "--threads", str(min(self.threads, nproc)), "--out", outdir]

    def setup_grids(self) -> list[dict]:
        # the fitness grid, and the comparison grid of the final report (whose
        # p points are also the R_g report's)
        return [{"preset": "search"}, {"preset": "comparison"}]

    def read(self, outdir: str) -> Outcome:
        summary = _read_json(os.path.join(outdir, "summary.json"))
        rows = summary["per_seed"]
        problems = []
        if len(rows) != self.n_seeds:
            problems.append(f"{len(rows)} seeds reported, expected {self.n_seeds}")
        points = []
        for row in rows:
            if row["evaluations"] != self.budget:
                problems.append(f"seed {row['seed']}: {row['evaluations']} evaluations, "
                                f"budget {self.budget}")
            if self.q >= 2 and not 0.0 < row.get("min_rg", -1.0) <= 1.0:
                problems.append(f"seed {row['seed']}: min_rg missing or outside (0, 1]")
            labels = _read_labels(os.path.join(outdir, "designs", f"seed_{row['seed']}.txt"))
            points.append(_point(f"seed {row['seed']}", self.q, labels, row["min_phi_a"]))
        values = [p.value for p in points]
        return Outcome(loop_s=_loop_seconds(outdir), evals=sum(r["evaluations"] for r in rows),
                       designs=len(rows), objective=math.fsum(values) / len(values),
                       points=tuple(points), problems=tuple(problems))


@dataclass(frozen=True)
class Table:
    """`build-table` on the search grid coarsened to `p_step`, plus the zero
    amplitude direction."""

    name: str
    why: str
    q: int
    length: int
    p_step: float
    budget: int
    threads: int
    n_checked: int

    def prepare(self, workdir: str, outdir: str, seed: int, nproc: int) -> list[str]:
        config = os.path.join(workdir, "config.json")
        ga_seed = random.Random(seed).randrange(2 ** 31)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"p_step": self.p_step, "seeds": [ga_seed]}, fh)
        return ["build-table", "--config", config, *_model_flags(self.q, self.length),
                "--budget", str(self.budget),
                "--threads", str(min(self.threads, nproc)), "--out", outdir]

    def setup_grids(self) -> list[dict]:
        return [{"preset": "search", "p_step": self.p_step, "include_zero": True}]

    def read(self, outdir: str) -> Outcome:
        rows = _read_json(os.path.join(outdir, "table.json"))
        step = max(1, len(rows) // max(1, self.n_checked))
        points = tuple(
            ScorePoint(what=f"entry {i}", q=self.q,
                       labels=tuple(int(t) for t in rows[i]["design"].split()),
                       theta=tuple(float(x) for x in rows[i]["theta"]),
                       p1=float(rows[i]["p"][0]), p6=float(rows[i]["p"][1]),
                       value=float(rows[i]["phi_a"]))
            for i in range(0, len(rows), step)[:self.n_checked])
        coverage = {"q": self.q, "grid": self.setup_grids()[0],
                    "keys": [[*r["theta"], *r["p"]] for r in rows]}
        return Outcome(loop_s=_loop_seconds(outdir), evals=self.budget * len(rows),
                       designs=len(rows),
                       objective=math.fsum(r["phi_a"] for r in rows) / len(rows),
                       points=points, problems=(), coverage=coverage)


@dataclass(frozen=True)
class Compare:
    """`compare --rg` of random designs plus an m-sequence and a block design
    on the comparison grid."""

    name: str
    why: str
    q: int
    length: int
    n_random: int
    threads: int

    def prepare(self, workdir: str, outdir: str, seed: int, nproc: int) -> list[str]:
        rng = random.Random(seed)
        ddir = os.path.join(workdir, "designs")
        designs = {os.path.join(ddir, f"random_{i:02d}.txt"):
                   ["random", self.q, self.length, ISI, rng.randrange(2 ** 31)]
                   for i in range(self.n_random)}
        designs[os.path.join(ddir, "mseq.txt")] = ["mseq", self.q, self.length, ISI]
        designs[os.path.join(ddir, "block.txt")] = ["block", self.q, 4, self.length, ISI]
        os.makedirs(ddir, exist_ok=True)
        with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump({"designs": designs}, fh)
        return ["compare", *designs, *_model_flags(self.q, self.length), "--rg",
                "--threads", str(min(self.threads, nproc)), "--out", outdir]

    def setup_grids(self) -> list[dict]:
        return [{"preset": "comparison"}]

    def read(self, outdir: str) -> Outcome:
        summary = _read_json(os.path.join(outdir, "comparison.json"))
        rows = summary["designs"]
        problems = []
        n_designs = self.n_random + 2
        if len(rows) != n_designs or len(summary["ranking"]) != n_designs:
            problems.append(f"{len(rows)} designs compared, expected {n_designs}")
        points = []
        for row in rows:
            if self.q >= 2 and not 0.0 < row.get("min_rg", -1.0) <= 1.0:
                problems.append(f"{row['design']}: min_rg missing or outside (0, 1]")
            points.append(_point(row["design"], self.q, _read_labels(row["file"]),
                                 row["min_phi_a"]))
        values = [p.value for p in points]
        return Outcome(loop_s=_loop_seconds(outdir), evals=len(rows), designs=len(rows),
                       objective=math.fsum(values) / len(values),
                       points=tuple(points), problems=tuple(problems))


WORKLOADS = {w.name: w for w in (
    Search(name="search-q1", q=1, length=255, n_seeds=2, threads=2, budget=500,
           why="Q=1 search, 2 seeds on 2 worker threads sharing one CPU: fitness splits "
               "between drift removal plus Gram and the grid stage; the only workload "
               "where parallel_map runs"),
    Search(name="search-q2", q=2, length=242, n_seeds=1, threads=1, budget=100,
           why="Q=2 search on 1,056 grid points: the grid-stage einsum dominates "
               "fitness, the Gram step is under 5%"),
    Table(name="table-q1", q=1, length=255, p_step=0.5, budget=30, threads=1,
          n_checked=4,
          why="70 short single-point GA runs: per-call Gram recomputation, fixed "
              "grid-stage overhead and GA bookkeeping dominate"),
    Compare(name="compare-q2", q=2, length=242, n_random=16, threads=1,
            why="18 designs on the 7,812-point comparison grid: no GA, 3 grid "
                "scorings per design, cold HRF bundles and a 10 MB CSV write"),
)}
