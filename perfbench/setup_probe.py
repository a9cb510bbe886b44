"""Set-up work of one workload, in a fresh process.

Imports the CLI, constructs the workload's Evaluator and grids, and computes
the HRF bundle for every p point on those grids: the work every command of the
workload does before it scores its first design.  The caller times the whole
process from outside.

    python3 perfbench/setup_probe.py Q LENGTH GRIDS_JSON
"""

import json
import sys

import mmdesign.cli  # noqa: F401  (its import time is part of set-up)
from mmdesign.criteria import make_grid
from mmdesign.glsmodel import DriftSpec, Evaluator, NoiseSpec

from workloads import DRIFT_ORDER, ISI, RHO, TR


def main(argv: list[str]) -> int:
    q, length, grids = int(argv[0]), int(argv[1]), json.loads(argv[2])
    ev = Evaluator(q, length, ISI, TR, NoiseSpec(rho=RHO), DriftSpec(order=DRIFT_ORDER))
    for spec in grids:
        for p in make_grid(q, **spec).ps:
            ev.bundle(p)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
