#!/usr/bin/env python3
"""Locally-optimal table plus worst-case-efficiency search, single type.

Stage 1 tabulates a locally optimal design per grid point (directions with
and without the zero direction, coarse parameter grid).  Stage 2 searches
for the sequence maximizing the worst-case efficiency ratio against that
table.  Skip stage 1 by pointing --table at an existing table file.
"""

import argparse
import os
import sys

from mmdesign.cli import main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/single_type_mme")
    ap.add_argument("--table", help="existing table file (skips the build)")
    ap.add_argument("--table-budget", type=int, default=800,
                    help="fitness evaluations per grid point")
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--n-seeds", type=int, default=10)
    args = ap.parse_args(argv)

    table = args.table
    if table is None:
        table_out = os.path.join(args.out, "table")
        rc = main(["build-table", "--out", table_out, "--seed", "101",
                   "--budget", str(args.table_budget)])
        if rc != 0:
            return rc
        table = os.path.join(table_out, "table.json")

    cli = ["search-mme", "--out", args.out, "--table", table,
           "--budget", str(args.budget)]
    for seed in range(args.n_seeds):
        cli += ["--seed", str(seed)]
    return main(cli)


if __name__ == "__main__":
    sys.exit(run())
