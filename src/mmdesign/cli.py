"""Command-line front end.

Subcommands: evaluate, search-maximin, search-mme, build-table, generate,
example-miezin, compare.  Every run is driven by an ExperimentConfig (JSON
file plus flag overrides) and a seed list, and writes its primary outputs
(CSV/JSON/design files) deterministically: rerunning with the same config and
seeds reproduces them byte for byte.  Timing and version info go to a separate
run_meta.json so the primary artifacts stay stable.

Exit codes: 0 success, 2 configuration error or unwritable output path, 3
input parse error, 4 runtime numerical error or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import (LocalOptTable, MinResult, ParamGrid, make_grid,
                       min_phi_a, min_re, min_rg, theta_to_angles, with_rg_directions,
                       worst_case)
from .designs import (Design, block_design, constrained_random, cyclic_design,
                      extend_m_sequence, load_design, m_sequence,
                      m_sequence_design, m_sequence_params, random_design,
                      save_design)
from .errors import (ConfigurationError, InputParseError, MmdesignError,
                     NumericalError, TableFormatError)
from .glsmodel import DEFAULT_RUN_SHIFT, DriftSpec, NoiseSpec, get_evaluator
from .search import (GaConfig, SearchResult, ga_search, maximin_objective,
                     mme_objective, build_local_opt_table)
from .util import (fmt_float, is_finite_number, mean_and_stderr, parallel_map,
                   resolve_threads)

_GA_FIELDS = {"population_size", "max_evaluations", "crossover_pairs", "mutation_rate",
              "immigrant_count"}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _check_type(key: str, value, annotation) -> None:
    """Raise ConfigurationError unless `value` fits a field annotated int,
    float or str, each optionally `| None`.  An int passes for a float; a
    bool passes for neither."""
    kinds = typing.get_args(annotation) or (annotation,)
    if value is None and type(None) in kinds:
        return
    kind = kinds[0]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        nullable = " or null" if type(None) in kinds else ""
        raise ConfigurationError(
            f"config key {key!r} must be {_TYPE_NAMES[kind]}{nullable} (got {value!r})")


@dataclass
class ExperimentConfig:
    """One experiment: model settings, grid steps, search space, GA knobs, seeds."""

    q_types: int = 1
    length: int = 255
    isi: float = 4.0
    tr: float = 2.0
    rho: float = 0.3
    drift_order: int = 2
    runs: int = 1
    run_shift: float = DEFAULT_RUN_SHIFT
    region: str = "theta0"
    p_step: float | None = None
    phi_step: float | None = None
    space: str = "xi"
    seeds: tuple[int, ...] = (0,)
    table: str | None = None
    out: str = "mmdesign-out"
    ga: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        steps = [n for n in ("p_step", "phi_step") if getattr(self, n) is not None]
        for name in ("isi", "tr", *steps):
            v = getattr(self, name)
            if not (is_finite_number(v) and v > 0):
                raise ConfigurationError(f"{name} must be a finite positive number (got {v!r})")
        for name in ("q_types", "length"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1 (got {getattr(self, name)})")
        if min(self.seeds, default=0) < 0:
            raise ConfigurationError(f"seeds must be >= 0 (got {min(self.seeds)})")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        if self.region not in ("theta0", "full"):
            raise ConfigurationError(f"unknown amplitude region {self.region!r}")
        self._noise = NoiseSpec(rho=self.rho, runs=self.runs, run_shift=self.run_shift)
        self._drift = DriftSpec(order=self.drift_order)
        self._ga = GaConfig(q_types=self.q_types, length=self.length, isi=self.isi,
                            space=self.space, **self.ga)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        ga = data.get("ga", {})
        if not isinstance(ga, dict):
            raise ConfigurationError("config key 'ga' must be an object")
        bad = sorted(set(ga) - _GA_FIELDS)
        if bad:
            raise ConfigurationError(f"unknown ga config keys: {', '.join(bad)}")
        ga_types = typing.get_type_hints(GaConfig)
        for key, value in ga.items():
            _check_type(f"ga.{key}", value, ga_types[key])
        types = typing.get_type_hints(cls)
        for key, value in data.items():
            if key not in ("seeds", "ga"):
                _check_type(key, value, types[key])
        kwargs = dict(data)
        if "seeds" in kwargs:
            seeds = kwargs["seeds"]
            if not isinstance(seeds, list) or not seeds:
                raise ConfigurationError("config key 'seeds' must be a nonempty list")
            for seed in seeds:
                _check_type("seeds", seed, int)
            kwargs["seeds"] = tuple(seeds)
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigurationError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        return cls.from_dict(data)

    def noise(self) -> NoiseSpec:
        return self._noise

    def drift(self) -> DriftSpec:
        return self._drift

    def evaluator(self, n_slots: int | None = None):
        return get_evaluator(self.q_types, n_slots if n_slots is not None else self.length,
                             self.isi, self.tr, self._noise, self.drift())

    def make_grid(self, preset: str, include_zero: bool = False) -> ParamGrid:
        """The `preset` grid ("search" or "comparison") over `region`, with
        `p_step` and `phi_step` in place of the preset's own when set."""
        return make_grid(self.q_types, preset=preset, region=self.region,
                         include_zero=include_zero, p_step=self.p_step, phi_step=self.phi_step)

    def ga_config(self, seed: int) -> GaConfig:
        return replace(self._ga, seed=seed)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["seeds"] = list(self.seeds)
        return d


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    fields = {}
    if getattr(args, "seed", None):
        fields["seeds"] = tuple(args.seed)
    for name in ("space", "table", "out", "q", "length", "isi", "tr", "rho", "runs"):
        v = getattr(args, name, None)
        if v is not None:
            fields["q_types" if name == "q" else name] = v
    if fields:
        cfg = replace(cfg, **fields)
    if getattr(args, "budget", None) is not None:
        cfg = replace(cfg, ga={**cfg.ga, "max_evaluations": args.budget})
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_csv(path: str, header: list[str], grid: ParamGrid, blocks) -> None:
    """Write a grid CSV: `header`, then for each `(name, columns)` in `blocks`
    one row per point of `grid` in grid order (direction-major, then p1, then
    p6): `name` unless None, CSV-quoted if it has a comma, quote or newline;
    the point's p1, p6, phi_* and theta_*; one cell per array in `columns`
    (two when `header` ends in "re"), each shaped like `Evaluator.phi_a_grid`
    values.  Numbers are rendered as `fmt_float` does (`'%.12g' % x`), by one
    `%` call per block and direction on that direction's row template; the
    name cell is added to the rows afterwards, so it is never a format string."""
    p_cells = [f"{fmt_float(p.p1)},{fmt_float(p.p6)}," for p in grid.ps]
    values = "%.12g,%.12g\n" if header[-1] == "re" else "%.12g\n"
    templates = ["".join([f"{pc}{tc}{values}" for pc in p_cells])
                 for tc in ("".join(f"{fmt_float(x)}," for x in (*theta_to_angles(th), *th))
                            for th in grid.thetas)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for name, columns in blocks:
            buf = io.StringIO()  # the name cell and its comma, as csv.writer quotes them
            csv.writer(buf, lineterminator="\n").writerow([] if name is None else [name, ""])
            lead = buf.getvalue()[:-1]
            for template, cells in zip(templates, np.stack(columns, -1)):
                text = template % tuple(cells.ravel().tolist())
                fh.write(lead + text[:-1].replace("\n", "\n" + lead) + "\n" if lead else text)


class _RunClock:
    """Worker count (`--threads`, else 1), start time and clocks of one command,
    taken once its configuration is resolved; `lap` ends a stage, and `finish`
    ends the last, "write", and writes clocks and stages to run_meta.json."""

    def __init__(self, args) -> None:
        self.threads = resolve_threads(getattr(args, "threads", 1))
        self.started = _now_iso()
        self.t0, self.c0 = time.perf_counter(), time.process_time()
        self.last, self.stage_s = self.t0, {}

    def lap(self, stage: str) -> None:
        """Add the seconds since the previous lap (or the start) to `stage`."""
        now = time.perf_counter()
        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + (now - self.last)
        self.last = now

    def finish(self, outdir: str, extra: dict | None = None) -> None:
        self.lap("write")
        wall_s, cpu_s = time.perf_counter() - self.t0, time.process_time() - self.c0
        meta = {
            "argv": sys.argv,
            "started": self.started,
            "finished": _now_iso(),
            "wall_time_s": wall_s,
            "cpu_time_s": cpu_s,
            "threads": self.threads,
            "stage_s": self.stage_s,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            **(extra or {}),
        }
        write_json(os.path.join(outdir, "run_meta.json"), meta)


def grid_header(q: int, with_re: bool) -> list[str]:
    cols = ["p1", "p6"]
    cols += [f"phi_{i}" for i in range(1, q)]
    cols += [f"theta_{i}" for i in range(1, q + 1)]
    cols.append("phi_a")
    if with_re:
        cols.append("re")
    return cols


def min_result_dict(r: MinResult) -> dict:
    return {"value": r.value, "theta": list(r.theta), "p1": r.p.p1, "p6": r.p.p6}


def _now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _best_index(values: list[float]) -> int:
    """Index of the largest value, the first one on ties."""
    return max(range(len(values)), key=lambda i: (values[i], -i))


def _load_design_checked(path: str, cfg: ExperimentConfig) -> Design:
    try:
        return load_design(path, q_types=cfg.q_types, isi=cfg.isi)
    except (OSError, UnicodeDecodeError) as e:
        raise InputParseError(f"cannot read design {path}: {e}") from e


def _load_table(path: str, cfg: ExperimentConfig) -> LocalOptTable:
    try:
        return LocalOptTable.load(path, q_types=cfg.q_types, isi=cfg.isi)
    except (OSError, UnicodeDecodeError) as e:
        raise InputParseError(f"cannot read table {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise TableFormatError(f"table {path} is not valid JSON: {e}") from e


def _score(cfg: ExperimentConfig, d: Design, grid: ParamGrid, denom=None, rg: bool = False
           ) -> tuple[list[np.ndarray], dict]:
    """`d` on `grid` from one `phi_a_grid` pass: its CSV columns (values, then
    relative efficiencies against the table's denominators `denom`) and its
    worst cases min_phi_a and min_re, then min_rg when `rg` is set."""
    thetas = with_rg_directions(grid.thetas, d.q_types, grid.phi_step) if rg else grid.thetas
    values = cfg.evaluator(len(d)).phi_a_grid(d, thetas, grid.ps)
    columns = [values[:len(grid.thetas)]]
    columns += [] if denom is None else [columns[0] / denom]
    worst = {key: min_result_dict(worst_case(c, grid))
             for key, c in zip(("min_phi_a", "min_re"), columns)}
    if rg:
        worst["min_rg"] = min_rg(d, grid.ps, cfg.tr, cfg.noise(), cfg.drift(),
                                 phi_step=grid.phi_step, scored=(thetas, values))
    return columns, worst


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    cfg = config_from_args(args)
    run = _RunClock(args)
    d = _load_design_checked(args.design, cfg)
    table = _load_table(cfg.table, cfg) if cfg.table else None
    grid = cfg.make_grid("comparison", include_zero=table is not None)
    denom = table.denominators(grid) if table is not None else None
    outdir = _ensure_out(cfg)
    run.lap("setup")
    columns, worst = _score(cfg, d, grid, denom)
    run.lap("scoring")
    summary = {"design_file": args.design, "q_types": d.q_types, "length": len(d),
               "isi": d.isi, "grid_points": grid.n_points, **worst}
    run.lap("report")
    write_csv(os.path.join(outdir, "evaluation.csv"),
              grid_header(d.q_types, with_re=denom is not None), grid, [(None, columns)])
    write_json(os.path.join(outdir, "evaluation.json"), summary)
    run.finish(outdir)
    print(f"min phi_a {fmt_float(summary['min_phi_a']['value'])} at "
          f"p=({fmt_float(summary['min_phi_a']['p1'])}, "
          f"{fmt_float(summary['min_phi_a']['p6'])})")
    if "min_re" in summary:
        print(f"min re {fmt_float(summary['min_re']['value'])}")
    print(f"wrote {outdir}/evaluation.csv ({grid.n_points} rows)")
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _one_seed(cfg: ExperimentConfig, command: str) -> int:
    """The seed of a command that makes one design or table."""
    if len(cfg.seeds) > 1:
        raise ConfigurationError(f"{command} takes one seed (got {list(cfg.seeds)})")
    return cfg.seeds[0]


def cmd_generate(args) -> int:
    cfg = config_from_args(args)
    seed = _one_seed(cfg, "generate")
    q, length, isi = cfg.q_types, cfg.length, cfg.isi
    if args.kind == "block":
        d = block_design(q, args.block_size, length, isi)
    elif args.kind == "mseq":
        fo, degree, poly = m_sequence_params(q, length, args.degree)
        seq = m_sequence(fo, degree, primitive_poly=poly)
        d = extend_m_sequence(seq, length, isi, q_types=q)
        print(f"field GF({fo}), degree {degree}, recurrence coefficients "
              f"{list(poly)}, period {len(seq)} (full period verified)")
    elif args.kind == "random":
        d = random_design(q, length, isi, seed)
    elif args.kind == "constrained-random":
        d = constrained_random(length, args.zero_fraction, (args.gap_min, args.gap_max),
                               isi, seed)
    else:  # cyclic, the last of the kinds argparse allows
        if not args.short:
            raise ConfigurationError("cyclic generation needs --short FILE")
        short = _load_design_checked(args.short, cfg)
        d = cyclic_design(short, q, length)
    out = os.path.join(cfg.out, f"{args.kind}.txt") if args.output is None else args.output
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    save_design(d, out, fmt="json" if out.endswith(".json") else "text")
    print(f"wrote {out} (q={d.q_types}, L={len(d)}, isi={fmt_float(d.isi)})")
    return 0


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def _search_and_report(cfg: ExperimentConfig, run: _RunClock, objective, report
                       ) -> tuple[list[SearchResult], list]:
    """One search per seed, `run.threads` at a time, then `report` of each best design."""
    results = parallel_map(lambda seed: ga_search(objective, cfg.ga_config(seed)),
                           cfg.seeds, run.threads)
    run.lap("search")
    reports = [report(r.best_design) for r in results]
    run.lap("report")
    return results, reports


def _search_command(cfg: ExperimentConfig, run: _RunClock, objective, criterion: str,
                    report, summary_extras: dict) -> int:
    """Search once per seed and report each best design: `report(design)` gives
    its worst case under `criterion` (a `min_result_dict`) and more fields of
    its summary row; `summary_extras` are more summary fields, after the config."""
    outdir = _ensure_out(cfg)
    ddir = os.path.join(outdir, "designs")
    os.makedirs(ddir, exist_ok=True)
    results, reports = _search_and_report(cfg, run, objective, report)
    finals = [report[criterion]["value"] for report in reports]
    best_idx = _best_index(finals)
    mean, stderr = mean_and_stderr(finals)
    stats = {"max": max(finals), "mean": mean,
             "std_err": stderr if len(finals) > 1 else None}
    summary = {
        "criterion": criterion,
        "config": cfg.to_json_dict(),
        **summary_extras,
        "per_seed": [{"seed": seed, "search_objective": r.best_objective,
                      criterion: report.pop(criterion), "evaluations": r.n_evaluations,
                      "generations": len(r.trace) - 1, **report}
                     for seed, r, report in zip(cfg.seeds, results, reports)],
        "stats": stats,
        "best_seed": cfg.seeds[best_idx],
        f"best_{criterion}": finals[best_idx],
    }
    for seed, r in zip(cfg.seeds, results):
        save_design(r.best_design, os.path.join(ddir, f"seed_{seed}.txt"))
    save_design(results[best_idx].best_design, os.path.join(outdir, "best_design.txt"))
    write_json(os.path.join(outdir, "summary.json"), summary)
    run.finish(outdir)
    label = criterion.replace("_", " ", 1)  # min_phi_a -> "min phi_a"
    print(f"{label} over {len(cfg.seeds)} seed(s): max {fmt_float(stats['max'])}, "
          f"mean {fmt_float(stats['mean'])}"
          + (f", std err {fmt_float(stats['std_err'])}" if stats["std_err"] is not None else ""))
    print(f"best design (seed {summary['best_seed']}) -> {outdir}/best_design.txt")
    return 0


def cmd_search_maximin(args) -> int:
    cfg = config_from_args(args)
    run = _RunClock(args)
    objective = maximin_objective(cfg.evaluator(), cfg.make_grid("search"))
    grid = cfg.make_grid("comparison")
    run.lap("setup")

    def report(d: Design) -> dict:
        if cfg.q_types >= 2 and cfg.region == "theta0":  # R_g as in `compare --rg`
            return _score(cfg, d, grid, rg=True)[1]
        return {"min_phi_a": min_result_dict(min_phi_a(d, grid, cfg.tr, cfg.noise(), cfg.drift()))}

    return _search_command(cfg, run, objective, "min_phi_a", report, {})


def cmd_search_mme(args) -> int:
    cfg = config_from_args(args)
    if not cfg.table:
        raise ConfigurationError("search-mme needs --table PATH (or config key 'table')")
    run = _RunClock(args)
    table = _load_table(cfg.table, cfg)
    grid = cfg.make_grid("search", include_zero=True)
    objective = mme_objective(cfg.evaluator(), grid, table)
    run.lap("setup")
    return _search_command(
        cfg, run, objective, "min_re",
        lambda d: {"min_re": min_result_dict(min_re(d, grid, table, cfg.tr, cfg.noise(),
                                                    cfg.drift()))},
        {"table": cfg.table, "table_entries": len(table)})


# ---------------------------------------------------------------------------
# build-table
# ---------------------------------------------------------------------------

def cmd_build_table(args) -> int:
    cfg = config_from_args(args)
    seed = _one_seed(cfg, "build-table")
    run = _RunClock(args)
    grid = cfg.make_grid("search", include_zero=True)
    outdir = _ensure_out(cfg)
    path = cfg.table or os.path.join(outdir, "table.json")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    existing = None
    if os.path.exists(path):
        existing = _load_table(path, cfg)
        print(f"merging into existing table with {len(existing)} entries")
    ev = cfg.evaluator()
    ga = cfg.ga_config(seed)
    run.lap("setup")

    def progress(i, total):
        if i % 25 == 0 or i == total:
            print(f"  {i}/{total} grid points", file=sys.stderr)

    # points run in order whatever --threads says: each is warm-started from
    # the previous point's winner
    table = build_local_opt_table(grid, ev, ga, existing=existing, progress=progress)
    run.lap("search")
    table.save(path)
    run.finish(outdir, {"table": path, "grid_points": grid.n_points})
    print(f"wrote {path} ({len(table)} entries over {grid.n_points} grid points)")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    names = [os.path.splitext(os.path.basename(path))[0] for path in args.designs]
    for i, name in enumerate(names):  # the CSV and the ranking tell designs apart by name
        if name in names[:i]:
            raise ConfigurationError(f"designs {args.designs[names.index(name)]} and "
                                     f"{args.designs[i]} share the name {name!r}")
    cfg = config_from_args(args)
    run = _RunClock(args)
    table = _load_table(cfg.table, cfg) if cfg.table else None
    grid = cfg.make_grid("comparison", include_zero=table is not None)
    denom = table.denominators(grid) if table is not None else None
    designs = [_load_design_checked(path, cfg) for path in args.designs]
    outdir = _ensure_out(cfg)
    run.lap("setup")
    blocks = []
    per_design = []
    for path, name, d in zip(args.designs, names, designs):
        columns, worst = _score(cfg, d, grid, denom, rg=args.rg and cfg.q_types >= 2)
        run.lap("scoring")
        blocks.append((name, columns))
        per_design.append({"design": name, "file": path, "min_phi_a": worst.pop("min_phi_a"),
                           "mean_phi_a": float(columns[0].mean()),
                           "max_phi_a": float(columns[0].max()), **worst})
        run.lap("report")
    key = "min_re" if denom is not None else "min_phi_a"
    ranking = sorted(range(len(per_design)),
                     key=lambda i: -per_design[i][key]["value"])
    summary = {"criterion": key, "designs": per_design,
               "ranking": [per_design[i]["design"] for i in ranking]}
    run.lap("report")
    write_csv(os.path.join(outdir, "comparison.csv"),
              ["design"] + grid_header(cfg.q_types, with_re=denom is not None), grid,
              blocks)
    write_json(os.path.join(outdir, "comparison.json"), summary)
    run.finish(outdir)
    for i in ranking:
        e = per_design[i]
        line = f"{e['design']}: min phi_a {fmt_float(e['min_phi_a']['value'])}"
        if "min_re" in e:
            line += f", min re {fmt_float(e['min_re']['value'])}"
        if "min_rg" in e:
            line += ", min rg " + ("n/a" if e["min_rg"] is None else fmt_float(e["min_rg"]))
        print(line)
    return 0


# ---------------------------------------------------------------------------
# two-run worked example
# ---------------------------------------------------------------------------

def cmd_example_miezin(args) -> int:
    if args.n_random < 1:
        raise ConfigurationError(f"--n-random must be >= 1 (got {args.n_random})")
    cfg = config_from_args(args)
    cfg = replace(cfg, q_types=1, length=132, isi=2.5, tr=2.5, runs=2,
                  run_shift=1.25, drift_order=2, region="theta0")
    run = _RunClock(args)
    search_grid = cfg.make_grid("search")
    report_grid = cfg.make_grid("comparison")
    outdir = _ensure_out(cfg)
    ddir = os.path.join(outdir, "designs")
    os.makedirs(ddir, exist_ok=True)
    run.lap("setup")

    def scored(d: Design, c: ExperimentConfig = cfg) -> tuple:
        """`d`, its values on the report grid under `c`, and their worst case."""
        columns, worst = _score(c, d, report_grid)
        return d, columns, worst["min_phi_a"]

    results, reports = _search_and_report(
        cfg, run, maximin_objective(cfg.evaluator(), search_grid), scored)
    best_idx = _best_index([worst["value"] for _, _, worst in reports])
    d_star = reports[best_idx][0]

    # competing designs, each with its values on the report grid: alternating
    # six-rest/six-stimulus blocks, an m-sequence wrapped to length, and the
    # best of 100 spacing-constrained random sequences (about half rest, mean
    # onset gap near 5 s)
    competitors = {"maximin": reports[best_idx],
                   "block": scored(block_design(1, 6, cfg.length, cfg.isi)),
                   "mseq": scored(m_sequence_design(1, cfg.length, cfg.isi))}
    for child in np.random.SeedSequence(cfg.seeds[0]).spawn(args.n_random):
        seed = int(child.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))
        rand = scored(constrained_random(cfg.length, 0.5, (None, None), cfg.isi, seed))
        if rand[2]["value"] > competitors.setdefault("random_best", rand)[2]["value"]:
            competitors["random_best"] = rand
    per_design = {name: worst for name, (_, _, worst) in competitors.items()}
    run.lap("report")

    # robustness: how much of the rho-matched optimum the rho=0.3 design keeps
    robustness = {}
    for rho_alt in (0.0, 0.5):
        cfg_alt = replace(cfg, rho=rho_alt)
        _, reports_alt = _search_and_report(
            cfg_alt, run, maximin_objective(cfg_alt.evaluator(), search_grid),
            lambda d: scored(d, cfg_alt))
        matched = max(worst["value"] for _, _, worst in reports_alt)
        own = scored(d_star, cfg_alt)[2]["value"]
        run.lap("report")
        robustness[f"rho_{fmt_float(rho_alt)}"] = {
            "matched_min_phi_a": matched,
            "design_min_phi_a": own,
            "retained_fraction": own / matched,
        }

    summary = {
        "config": cfg.to_json_dict(),
        "per_design_min_phi_a": per_design,
        "best_seed": cfg.seeds[best_idx],
        "robustness": robustness,
    }
    for name, (d, _, _) in competitors.items():
        save_design(d, os.path.join(ddir, f"{name}.txt"))
    write_csv(os.path.join(outdir, "distributions.csv"),
              ["design"] + grid_header(1, with_re=False), report_grid,
              [(name, columns) for name, (_, columns, _) in competitors.items()])
    write_json(os.path.join(outdir, "summary.json"), summary)
    run.finish(outdir)
    for name in competitors:
        print(f"{name}: min phi_a {fmt_float(per_design[name]['value'])}")
    for key, r in robustness.items():
        print(f"{key}: retains {fmt_float(100 * r['retained_fraction'])}% of the "
              f"matched optimum")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FLAGS = {
    "seed": dict(type=int, action="append",
                 help="random seed (repeatable; overrides config seeds)"),
    "space": dict(choices=["xi", "xi0"], help="design space override"),
    "table": dict(help="locally optimal design table (JSON)"),
    "threads": dict(type=int, default=1, help="seeds searched at once (default 1)"),
    "q": dict(type=int, help="number of stimulus types"),
    "length": dict(type=int, help="number of stimulus slots"),
    "isi": dict(type=float, help="inter-stimulus interval, seconds"),
    "tr": dict(type=float, help="scan repetition time, seconds"),
    "rho": dict(type=float, help="AR(1) noise correlation"),
    "runs": dict(type=int, help="number of runs (1 or 2)"),
}
_MODEL = "q length isi tr rho runs"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdesign",
        description="Find and evaluate worst-case efficient fMRI stimulus sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str, flags: str,
                budget: str | None = None) -> argparse.ArgumentParser:
        """A subcommand running `func`, with --config, --out, the `_FLAGS`
        named in `flags`, and --budget when `budget` names what it covers."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config JSON")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--out", help="output directory")
        if budget:
            p.add_argument("--budget", type=int, help=f"fitness evaluations per {budget}")
        p.set_defaults(func=func)
        return p

    p = command("evaluate", cmd_evaluate, "evaluate a design file over a grid",
                "table " + _MODEL)
    p.add_argument("design", help="design file (text or JSON)")
    command("search-maximin", cmd_search_maximin, "search for a worst-case optimal design",
            "seed space threads " + _MODEL, budget="search")
    command("search-mme", cmd_search_mme,
            "search for a worst-case efficient design (needs a table)",
            "seed space table threads " + _MODEL, budget="search")
    command("build-table", cmd_build_table, "build or extend a locally optimal design table",
            "seed space table threads " + _MODEL, budget="grid point")

    p = command("generate", cmd_generate, "write a baseline design file", "seed q length isi")
    p.add_argument("kind", choices=["block", "mseq", "random",
                                    "constrained-random", "cyclic"])
    p.add_argument("--block-size", type=int, default=4,
                   help="stimuli per block (block kind)")
    p.add_argument("--degree", type=int, help="LFSR degree (mseq kind)")
    p.add_argument("--zero-fraction", type=float, default=0.5,
                   help="rest fraction (constrained-random kind)")
    p.add_argument("--gap-min", type=float, help="smallest mean onset gap, seconds "
                   "(constrained-random; default isi / (1 - zero fraction) less 2%%)")
    p.add_argument("--gap-max", type=float, help="largest mean onset gap, seconds "
                   "(constrained-random; default that mean gap plus 2%%)")
    p.add_argument("--short", help="short design file (cyclic kind)")
    p.add_argument("-o", "--output", help="output design file path")

    p = command("example-miezin", cmd_example_miezin,
                "two-run worked example with baselines and robustness", "seed space threads",
                budget="search")
    p.add_argument("--n-random", type=int, default=100,
                   help="number of constrained random competitors")

    p = command("compare", cmd_compare, "evaluate several design files side by side",
                "table threads " + _MODEL)
    p.add_argument("designs", nargs="+", help="design files")
    p.add_argument("--rg", action="store_true",
                   help="also report the permutation-image efficiency bound")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except MmdesignError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # inputs that cannot be read raise MmdesignError
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return ConfigurationError.exit_code
    except MemoryError as e:
        print(f"error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return NumericalError.exit_code


if __name__ == "__main__":
    sys.exit(main())
