"""Benchmark of the mmdesign CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`
and the output check uses the dense reference in `tests/reference.py`.

The workload (see workloads.py) is a closed loop with one client: one
command at a time, each in a fresh process, until S seconds have passed.
Every command gets the same inputs, made from the seed before timing starts,
with BLAS pinned to one thread and an explicit `--threads`.

--trace 0 prints the end-to-end metrics: medians over the commands, and
`setup_s` as the median of fresh set-up processes.  Times are in reference
seconds, corrected for the host's speed at the time (see calibrate()).  --trace 1 alternates an
untraced command with an in-process traced one (traced.py) and prints the
per-layer metrics of the traced command with the median command time (one
command's, so that its layer times add up to its command time), and the
tracing overhead: median traced minus median untraced wall time.

Each command's outputs are checked: the first command's reported worst-case
points are re-scored by the reference, and every later command must write
the same bytes.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from traced import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REQUIRED = (os.path.join("src", "mmdesign", "cli.py"), os.path.join("tests", "reference.py"))
WORK = ".perfbench-work"  # relative to ROOT, the working directory of every process
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "evals_per_s": "1/s",
    "designs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "objective": "phi_a",
}
SETUP_REPEATS = 5
MIN_COMMANDS = 2

# On a shared cloud VM the speed of every process can swing by up to 2x over
# seconds to minutes with other tenants' load (measured on a 2-vCPU 2.1 GHz
# Xeon VM that reported no steal time).  Each measured time is therefore
# converted to reference seconds: multiplied by CAL_REF_S over the time of a
# fixed calibration loop.  A run keeps its commands on one CPU, and the loop
# runs pinned to that CPU just before and just after each measurement; the
# mean of those loop times is the host's speed for it.  Two worker threads
# spread over two vCPUs were slower and far less steady than on one (they
# contend for the GIL across CPUs), so multi-threaded commands share the CPU
# too.  CAL_REF_S is the loop's time at full speed on a
# 2.1 GHz Xeon vCPU with CPython 3.11, so reference seconds read like the
# seconds of an undisturbed run there.
CAL_LOOPS = 1_500_000
CAL_REF_S = 0.090


def calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


@contextlib.contextmanager
def pinned(n_cpus: int):
    """Keep this process, and the processes it starts, on `n_cpus` CPUs;
    yields them (all allowed CPUs where pinning is not permitted)."""
    allowed = os.sched_getaffinity(0)
    cpus = set(sorted(allowed)[-n_cpus:])
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        cpus = allowed
    try:
        yield sorted(cpus)
    finally:
        os.sched_setaffinity(0, allowed)


class Speed:
    """Factor from measured to reference seconds for each measurement."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.last = self.calibrate()

    def calibrate(self) -> float:
        """Mean time of the calibration loop on each of the run's CPUs."""
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_loop())
        except OSError:  # may not pin: one loop wherever it runs
            times = [calibration_loop()]
        finally:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, self.cpus)
        return sum(times) / len(times)

    def factor(self) -> float:
        """For the measurement that has just ended."""
        now = self.calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
        return not problems


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = SRC
    env.pop("MMDESIGN_THREADS", None)
    return env


def run_child(cmd: list[str], log: str) -> dict:
    """Run one process to completion; its wall time, CPU time and peak RSS."""
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        with open(log, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-600:].strip().replace("\n", " | ")
        problems.append(f"exit code {proc.returncode}: {tail}")
    return {"t0": t0, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "problems": problems}


def digest(outdir: str) -> str:
    """Hash of the primary outputs (everything but the timing record)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(outdir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            if name == "run_meta.json" and base == outdir:
                continue
            h.update(os.path.relpath(path, outdir).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def oracle(mode: str, request: dict, workdir: str):
    """Run oracle.py on `request`; its JSON reply for `check`, None for `inputs`."""
    path = os.path.join(workdir, f"{mode}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    out = subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"), mode, path],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"oracle {mode} failed: {out.stderr.strip()[-600:]}")
    return json.loads(out.stdout) if mode == "check" else None


class Checker:
    """Output check of every command of one run."""

    def __init__(self, workload, outdir: str, workdir: str) -> None:
        self.workload = workload
        self.outdir = outdir
        self.workdir = workdir
        self.first: str | None = None
        self.first_ok = False

    def __call__(self):
        """(outcome or None, problems) for the outputs now in outdir."""
        try:
            outcome = self.workload.read(self.outdir)
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError) as exc:
            return None, [f"unreadable outputs: {exc!r}"]
        problems = list(outcome.problems)
        h = digest(self.outdir)
        if self.first is None:
            self.first = h
            request = {"points": [dataclasses.asdict(p) for p in outcome.points],
                       "coverage": outcome.coverage}
            try:
                problems += oracle("check", request, self.workdir)
            except RuntimeError as exc:
                problems.append(str(exc))
            self.first_ok = not problems
        elif h != self.first:
            problems.append("outputs differ from the first command's")
        elif not self.first_ok:
            problems.append("same outputs as the first command, which failed its check")
        return outcome, problems


def measure_setup(workload, ledger: Ledger, speed: Speed, workdir: str,
                  repeats: int) -> list[dict]:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), str(workload.q),
           str(workload.length), json.dumps(workload.setup_grids())]
    runs = []
    for i in range(repeats):
        run = run_child(cmd, os.path.join(workdir, "setup.log"))
        run["factor"] = speed.factor()
        if ledger.record(f"set-up {i + 1}", run["problems"]):
            runs.append(run)
    return runs


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object and what it measured."""
    nproc = len(os.sched_getaffinity(0))
    with pinned(1) as cpus:
        return _run_workload(workload, seed, seconds, trace, setup_repeats, cpus, nproc)


def _run_workload(workload, seed: int, seconds: float, trace: bool, setup_repeats: int,
                  cpus: list[int], nproc: int) -> dict:
    workdir = os.path.join(WORK, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    outdir = os.path.join(workdir, "out")
    argv = workload.prepare(workdir, outdir, seed, nproc)
    inputs = os.path.join(workdir, "inputs.json")
    if os.path.exists(inputs):
        with open(inputs, "r", encoding="utf-8") as fh:
            oracle("inputs", json.load(fh), workdir)
    command = [sys.executable, "-m", "mmdesign.cli", *argv]
    traced_command = [sys.executable, os.path.join(HERE, "traced.py"),
                      os.path.join(workdir, "layers.json"),
                      os.path.join(workdir, "spans.npz"), "--", *argv]
    ledger = Ledger()
    check = Checker(workload, outdir, workdir)
    speed = None if trace else Speed(cpus)
    setup = [] if trace else measure_setup(workload, ledger, speed, workdir, setup_repeats)

    plain, traced, rounds = [], [], []
    need = 1 if trace else MIN_COMMANDS
    t_start = time.perf_counter()
    while len(rounds) < need or time.perf_counter() - t_start + statistics.median(rounds) / 2 <= seconds:
        t_round = time.perf_counter()
        shutil.rmtree(outdir, ignore_errors=True)
        run = run_child(command, os.path.join(workdir, "command.log"))
        if speed:
            run["factor"] = speed.factor()
        outcome, problems = check() if not run["problems"] else (None, run["problems"])
        if ledger.record(f"command {len(rounds) + 1}", problems):
            plain.append((run, outcome))
        if trace:
            shutil.rmtree(outdir, ignore_errors=True)
            run = run_child(traced_command, os.path.join(workdir, "traced.log"))
            problems = run["problems"]
            if not problems:
                outcome, problems = check()
                with open(os.path.join(workdir, "layers.json"), encoding="utf-8") as fh:
                    layers = json.load(fh)
                problems += layers["problems"]
            if ledger.record(f"traced command {len(rounds) + 1}", problems):
                layers["metrics"]["criteria.scorings_per_design"] = (
                    layers["report_scorings"] / outcome.designs)
                traced.append((layers["command_end"] - run["t0"], layers))
        rounds.append(time.perf_counter() - t_round)

    med = statistics.median
    if trace:
        if not traced or not plain:
            return {"ledger": ledger, "metrics": None, "argv": argv, "cpus": cpus}
        # one command's layers, so that they add up: the median by command time
        traced.sort(key=lambda t: t[1]["metrics"]["trace.command_s"])
        metrics = dict(traced[(len(traced) - 1) // 2][1]["metrics"])
        metrics["trace.overhead_s"] = (med(w for w, _ in traced)
                                       - med(r["wall"] for r, _ in plain))
        missing = sorted({b for _, lay in traced for b in lay["missing_boundaries"]})
        values = {k: (metrics[k], u) for k, u in PER_LAYER.items()}
        return {"ledger": ledger, "metrics": values, "argv": argv, "cpus": cpus,
                "counts": {"commands": len(plain), "traced": len(traced)},
                "missing_boundaries": missing}
    if not plain or not setup:
        return {"ledger": ledger, "metrics": None, "argv": argv, "cpus": cpus}
    values = {
        "wall_s": med(r["wall"] * r["factor"] for r, _ in plain),
        "setup_s": med(r["wall"] * r["factor"] for r in setup),
        "evals_per_s": med(o.evals / (o.loop_s * r["factor"]) for r, o in plain),
        "designs_per_s": med(o.designs / (o.loop_s * r["factor"]) for r, o in plain),
        "cpu_s": med(r["cpu"] * r["factor"] for r, _ in plain),
        "peak_rss_mb": med(r["rss_mb"] for r, _ in plain),
        "objective": plain[0][1].objective,
    }
    raw = {"wall_s": med(r["wall"] for r, _ in plain),
           "setup_s": med(r["wall"] for r in setup),
           "cpu_s": med(r["cpu"] for r, _ in plain),
           "speed_factor": med(r["factor"] for r, _ in plain)}
    return {"ledger": ledger, "metrics": {k: (values[k], END_TO_END[k]) for k in END_TO_END},
            "argv": argv, "cpus": cpus, "raw": raw,
            "counts": {"commands": len(plain), "setup_runs": len(setup),
                       "walls": [round(r["wall"], 3) for r, _ in plain],
                       "factors": [round(r["factor"], 3) for r, _ in plain]}}


def git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return out.stdout.strip() or "unavailable"


def environment(workload_name: str, seed: int, result: dict) -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=child_env(), capture_output=True, text=True).stdout.strip()
    return {"workload": workload_name, "seed": seed, "argv": result["argv"],
            "cpus": result["cpus"], "nproc": len(os.sched_getaffinity(0)),
            **{k: child_env()[k] for k in PINNED},
            "python": platform.python_version(), "numpy": numpy,
            "revision": git_revision()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    for path in REQUIRED:
        if not os.path.isfile(path):
            print(f"error: {path} not found; the benchmark needs an mmdesign source "
                  f"checkout around {os.path.basename(HERE)}/", file=sys.stderr)
            return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    ledger = result["ledger"]
    print("environment " + json.dumps(environment(args.workload, args.seed, result)))
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if result["metrics"] is None:
        print("error: no command completed its check; nothing to report", file=sys.stderr)
        return 1
    for key in ("counts", "raw", "missing_boundaries"):
        if result.get(key):
            print(f"{key} " + json.dumps(result[key]))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
