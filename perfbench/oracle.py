"""The benchmark's work that needs numpy, the program or the reference.

    python3 perfbench/oracle.py inputs REQUEST_JSON   # write generated design files
    python3 perfbench/oracle.py check REQUEST_JSON    # print the check's problems

It runs in a process of its own so that run.py stays small: on Linux a
child's peak RSS includes the peak of the process it was started from.

`inputs` writes each design named in the request with the program's own
generators.  `check` re-scores each reported point with `ref_phi_a` from
tests/reference.py (imported read-only) and requires agreement within 1e-8
relative, and matches a table's keys against its grid.  It prints a JSON
list of problems, empty when the outputs are correct.
"""

import importlib.util
import json
import os
import sys

from workloads import DRIFT_ORDER, ISI, RHO, TR

REFERENCE = os.path.join("tests", "reference.py")
REL_TOL = 1e-8


def make_inputs(request: dict) -> None:
    from mmdesign.designs import (block_design, m_sequence_design, random_design,
                                  save_design)
    makers = {"random": random_design, "mseq": m_sequence_design, "block": block_design}
    for path, (kind, *args) in request["designs"].items():
        save_design(makers[kind](*args), path)


def rescore(points: list[dict]) -> list[str]:
    spec = importlib.util.spec_from_file_location("reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    problems = []
    for pt in points:
        want = reference.ref_phi_a(list(pt["labels"]), pt["q"], ISI, TR, RHO, DRIFT_ORDER,
                                   pt["theta"], pt["p1"], pt["p6"])
        if not abs(pt["value"] - want) <= REL_TOL * abs(want):
            problems.append(f"{pt['what']}: reported phi_a {pt['value']!r} at "
                            f"theta={pt['theta']}, p=({pt['p1']}, {pt['p6']}); "
                            f"reference {want!r}")
    return problems


def coverage(request: dict) -> list[str]:
    from mmdesign.criteria import make_grid

    def key(values):
        return tuple(round(float(x), 9) + 0.0 for x in values)

    grid = make_grid(request["q"], **request["grid"])
    want = {key((*th, p.p1, p.p6)) for th, p in grid.points()}
    have = [key(k) for k in request["keys"]]
    if set(have) == want and len(have) == len(want):
        return []
    return [f"table has {len(have)} entries; {len(want - set(have))} of the "
            f"{len(want)} grid points are missing"]


def main(argv: list[str]) -> int:
    mode, path = argv
    with open(path, "r", encoding="utf-8") as fh:
        request = json.load(fh)
    if mode == "inputs":
        make_inputs(request)
        return 0
    problems = rescore(request["points"])
    if request.get("coverage"):
        problems += coverage(request["coverage"])
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # import the reference read-only
    sys.exit(main(sys.argv[1:]))
