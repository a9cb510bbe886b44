"""One mmdesign command, run in-process with a span at every layer boundary.

    python3 perfbench/traced.py RESULT_JSON SPANS_NPZ -- CLI_ARGS...

The program is not edited: this script replaces the public callables at each
layer boundary by wrappers that record a span (name, start, end, parent),
then calls `mmdesign.cli.main(CLI_ARGS)`.  Spans stay in memory while the
command runs; afterwards they are written to SPANS_NPZ and reduced to the
per-layer metrics in RESULT_JSON.  The exit code is the command's.

`busy_s` of a layer is the sum of its span durations, counted per thread.
`self_s` is the layer's share of the command's wall time: at each instant the
elapsed time is split equally among the innermost open spans, so a span's
self time is its duration minus the time its children cover, and the self
times of all spans add up to the command's wall time even while
`parallel_map` runs tasks on several threads.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import os
import sys
import threading
import time

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable with the parent's clock

# Metric name -> unit, in the order they are reported.
PER_LAYER = {
    "hrf.bundle.calls": "count",
    "hrf.bundle.misses": "count",
    "hrf.bundle.busy_s": "s",
    "hrf.bundle.self_s": "s",
    "designs.design_matrix.calls": "count",
    "designs.design_matrix.busy_s": "s",
    "designs.design_matrix.self_s": "s",
    "glsmodel.evaluator.setup_s": "s",
    "glsmodel.evaluator.self_s": "s",
    "glsmodel.residualize.calls": "count",
    "glsmodel.residualize.self_s": "s",
    "glsmodel.gram.self_s": "s",
    "glsmodel.grid.calls": "count",
    "glsmodel.grid.points": "count",
    "glsmodel.grid.self_s": "s",
    "glsmodel.grid.ns_per_point": "ns",
    "glsmodel.grid.us_per_call": "us",
    "criteria.report.calls": "count",
    "criteria.report.busy_s": "s",
    "criteria.report.self_s": "s",
    "criteria.scorings_per_design": "count",
    "search.evals": "count",
    "search.generations": "count",
    "search.distinct_genomes": "count",
    "search.repeat_share": "fraction",
    "search.fitness.busy_s": "s",
    "search.fitness.self_s": "s",
    "search.fitness_ms.p50": "ms",
    "search.fitness_ms.p99": "ms",
    "search.decode.busy_s": "s",
    "search.decode.self_s": "s",
    "search.self_s": "s",
    "util.parallel_map.calls": "count",
    "util.parallel_map.tasks": "count",
    "util.parallel_map.busy_s": "s",
    "util.parallel_map.self_s": "s",
    "util.parallel_map.speedup": "ratio",
    "cli.import_s": "s",
    "cli.output.busy_s": "s",
    "cli.output.self_s": "s",
    "cli.output.bytes": "bytes",
    "trace.command_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> the metric that receives its self time.  With the root's self
# time (trace.unattributed_s) these add up to trace.command_s.
SELF_METRICS = {
    "hrf.bundle": "hrf.bundle.self_s",
    "designs.design_matrix": "designs.design_matrix.self_s",
    "glsmodel.evaluator": "glsmodel.evaluator.self_s",
    "glsmodel.residualize": "glsmodel.residualize.self_s",
    "glsmodel.gram": "glsmodel.gram.self_s",
    "glsmodel.grid": "glsmodel.grid.self_s",
    "criteria.report": "criteria.report.self_s",
    "search.fitness": "search.fitness.self_s",
    "search.decode": "search.decode.self_s",
    "search.ga": "search.self_s",
    "util.parallel_map": "util.parallel_map.self_s",
    "cli.output": "cli.output.self_s",
}
ROOT_SPAN = "cli.main"
SUM_TOLERANCE = 0.01


class Tracer:
    """Spans of one process, kept in memory as flat records
    (span id, parent id, name id, start, end)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.records = array.array("d")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.stack = [0]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        """`fn` with a span named `name` around each call; `note(*args)` is
        called first, for counts taken from the arguments."""
        nid = self._name_id(name)
        local, ids, record = self._local, self._ids, self.records.extend

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [0]
            if note is not None:
                note(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, parent, nid, t0, t1))

        return traced

    def adopt(self, fn):
        """`fn` such that spans it opens on another thread are children of
        the span open here and now."""
        parent = self._local.stack[-1]
        owner = threading.get_ident()
        local = self._local

        def task(*args, **kwargs):
            if threading.get_ident() != owner:
                local.stack = [parent]
            return fn(*args, **kwargs)

        return task


def install(tracer: Tracer, cli, counts: dict) -> list[str]:
    """Wrap every layer boundary; returns the boundaries this version of the
    program does not have."""
    from mmdesign import glsmodel, search

    missing = []

    def patch(owner, attr: str, name: str, note=None, inner=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        wrapped = tracer.wrap(name, inner(fn) if inner else fn, note)
        setattr(owner, attr, wrapped)
        return wrapped

    ev = glsmodel.Evaluator
    patch(glsmodel, "hrf_bundle", "hrf.bundle")
    patch(glsmodel, "design_matrix", "designs.design_matrix")
    patch(ev, "__init__", "glsmodel.evaluator")
    patch(ev, "residualized", "glsmodel.residualize")
    patch(ev, "gram", "glsmodel.gram")
    patch(ev, "phi_a_grid", "glsmodel.grid",
          note=lambda self, d, thetas, ps: counts["grid_points"].append(len(thetas) * len(ps)))
    patch(search, "decode_genome", "search.decode")
    for attr in ("min_phi_a", "min_re", "min_rg"):
        patch(cli, attr, "criteria.report")

    def sized(write):
        def call(path, *args, **kwargs):
            out = write(path, *args, **kwargs)
            counts["output_bytes"].append(os.path.getsize(path))
            return out
        return call

    for attr in ("write_csv", "write_json"):
        patch(cli, attr, "cli.output", inner=sized)

    def searching(ga):
        # each search's objective gets a span too, and counts distinct designs
        def call(objective, config, *args, **kwargs):
            seen = set()
            fitness = tracer.wrap("search.fitness", objective,
                                  note=lambda d: seen.add(d.labels))
            result = ga(fitness, config, *args, **kwargs)
            counts["searches"].append((result.n_evaluations, len(result.trace) - 1, len(seen)))
            return result
        return call

    # cli and build_local_opt_table each call ga_search through their own module
    ga_traced = patch(search, "ga_search", "search.ga", inner=searching)
    if ga_traced is not None and hasattr(cli, "ga_search"):
        cli.ga_search = ga_traced
    else:
        missing.append("mmdesign.cli.ga_search")

    def adopting(pmap):
        def call(fn, items, *args, **kwargs):
            return pmap(tracer.adopt(fn), items, *args, **kwargs)
        return call

    patch(cli, "parallel_map", "util.parallel_map", inner=adopting,
          note=lambda fn, items, *a, **k: counts["map_tasks"].append(len(items)))
    return missing


def self_times(sid, starts, ends, parent_pos):
    """Wall-time share of each span: each interval between consecutive span
    boundaries is split equally among the innermost open spans."""
    import numpy as np

    n = len(starts)
    times = np.concatenate([starts, ends])
    kinds = np.concatenate([np.ones(n), np.zeros(n)])   # ends before starts at a tie
    order_in = np.concatenate([sid, -sid])  # parents open first and close last
    share = [0.0] * n
    open_children: dict[int, int] = {}
    innermost: set[int] = set()
    parents = parent_pos.tolist()
    times_l = times.tolist()
    last = 0.0
    for e in np.lexsort((order_in, kinds, times)).tolist():
        t = times_l[e]
        if innermost:
            dt = (t - last) / len(innermost)
            for s in innermost:
                share[s] += dt
        last = t
        i = e if e < n else e - n
        p = parents[i]
        if e < n:
            open_children[i] = 0
            innermost.add(i)
            if p in open_children:
                open_children[p] += 1
                innermost.discard(p)
        else:
            innermost.discard(i)
            open_children.pop(i, None)
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    innermost.add(p)
    return np.asarray(share)


def layer_metrics(tracer: Tracer, counts: dict, import_s: float, bundle_misses: int):
    """Per-layer metrics of one traced command (all but trace.overhead_s),
    plus the number of grid scorings made outside any search."""
    import numpy as np

    rec = np.frombuffer(tracer.records, dtype=float).reshape(-1, 5)
    sid, parent, nid = (rec[:, k].astype(np.int64) for k in range(3))
    starts, ends = rec[:, 3], rec[:, 4]
    pos = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
    pos[sid] = np.arange(len(sid))
    parent_pos = pos[parent]  # the root's parent id 0 maps to -1
    dur = ends - starts
    shares = self_times(sid, starts, ends, parent_pos)
    names = tracer.names

    def of(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    def calls(name):
        return int(of(name).sum())

    def busy(name):
        return float(dur[of(name)].sum())

    def self_s(name):
        return float(shares[of(name)].sum())

    root = of(ROOT_SPAN)
    m = {name: 0.0 for name in PER_LAYER}
    for span, metric in SELF_METRICS.items():
        m[metric] = self_s(span)
    searches = counts["searches"]
    evals = sum(s[0] for s in searches)
    distinct = sum(s[2] for s in searches)
    fitness_ms = np.sort(dur[of("search.fitness")]) * 1e3
    grid_calls = calls("glsmodel.grid")
    points = sum(counts["grid_points"])
    pmap = of("util.parallel_map")
    pmap_busy = float(dur[pmap].sum())
    tasks_busy = float(dur[np.isin(parent_pos, np.flatnonzero(pmap))].sum())
    m.update({
        "hrf.bundle.calls": calls("hrf.bundle"),
        "hrf.bundle.misses": bundle_misses,
        "hrf.bundle.busy_s": busy("hrf.bundle"),
        "designs.design_matrix.calls": calls("designs.design_matrix"),
        "designs.design_matrix.busy_s": busy("designs.design_matrix"),
        "glsmodel.evaluator.setup_s": busy("glsmodel.evaluator"),
        "glsmodel.residualize.calls": calls("glsmodel.residualize"),
        "glsmodel.grid.calls": grid_calls,
        "glsmodel.grid.points": points,
        "glsmodel.grid.ns_per_point": m["glsmodel.grid.self_s"] / points * 1e9 if points else 0.0,
        "glsmodel.grid.us_per_call": (m["glsmodel.grid.self_s"] / grid_calls * 1e6
                                      if grid_calls else 0.0),
        "criteria.report.calls": calls("criteria.report"),
        "criteria.report.busy_s": busy("criteria.report"),
        "search.evals": evals,
        "search.generations": sum(s[1] for s in searches),
        "search.distinct_genomes": distinct,
        "search.repeat_share": 1.0 - distinct / evals if evals else 0.0,
        "search.fitness.busy_s": busy("search.fitness"),
        "search.fitness_ms.p50": float(np.percentile(fitness_ms, 50)) if len(fitness_ms) else 0.0,
        "search.fitness_ms.p99": float(np.percentile(fitness_ms, 99)) if len(fitness_ms) else 0.0,
        "search.decode.busy_s": busy("search.decode"),
        "util.parallel_map.calls": int(pmap.sum()),
        "util.parallel_map.tasks": sum(counts["map_tasks"]),
        "util.parallel_map.busy_s": pmap_busy,
        "util.parallel_map.speedup": tasks_busy / pmap_busy if pmap_busy > 0 else 1.0,
        "cli.import_s": import_s,
        "cli.output.busy_s": busy("cli.output"),
        "cli.output.bytes": sum(counts["output_bytes"]),
        "trace.command_s": float(dur[root].sum()),
        "trace.unattributed_s": float(shares[root].sum()),
    })
    # grid scorings that are not a search's fitness call: the reports
    in_search = set(np.flatnonzero(of("search.fitness")).tolist())
    parents = parent_pos.tolist()
    outside = 0
    for i in np.flatnonzero(of("glsmodel.grid")).tolist():
        while i >= 0 and i not in in_search:
            i = parents[i]
        outside += i < 0
    fitness_calls = calls("search.fitness")
    problems = []
    if fitness_calls != evals:
        problems.append(f"{fitness_calls} fitness calls but {evals} evaluations reported")
    attributed = sum(m[k] for k in SELF_METRICS.values()) + m["trace.unattributed_s"]
    if abs(attributed - m["trace.command_s"]) > SUM_TOLERANCE * m["trace.command_s"]:
        problems.append(f"layer self times add up to {attributed:.6f} s, "
                        f"not the command's {m['trace.command_s']:.6f} s")
    return m, outside, problems


def main(argv: list[str]) -> int:
    result_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: traced.py RESULT_JSON SPANS_NPZ -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    t0 = clock()
    import mmdesign.cli as cli
    import_s = clock() - t0
    from mmdesign import hrf

    cache_info = getattr(getattr(hrf, "hrf_bundle", None), "cache_info", None)
    misses_before = cache_info().misses if cache_info else 0
    counts = {"grid_points": [], "output_bytes": [], "searches": [], "map_tasks": []}
    missing = install(tracer, cli, counts)
    code = tracer.wrap(ROOT_SPAN, cli.main)(cli_args)
    command_end = clock()

    import numpy as np

    bundle_misses = cache_info().misses - misses_before if cache_info else 0
    metrics, report_scorings, problems = layer_metrics(tracer, counts, import_s, bundle_misses)
    rec = np.frombuffer(tracer.records, dtype=float).reshape(-1, 5)
    np.savez(spans_path, names=np.array(tracer.names), span=rec[:, 0].astype(np.int64),
             parent=rec[:, 1].astype(np.int64), name=rec[:, 2].astype(np.int64),
             start=rec[:, 3], end=rec[:, 4])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "report_scorings": report_scorings,
                   "command_end": command_end, "missing_boundaries": missing,
                   "problems": problems}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
