#!/usr/bin/env python3
"""Full-scale worst-case search, single stimulus type.

255 slots, 4 s spacing, 2 s scans, AR(1) rho = 0.3, quadratic drift.
Ten independent searches; the summary reports per-seed worst-case values
on the fine comparison grid plus their mean and standard error.
"""

import argparse
import sys

from mmdesign.cli import main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/single_type_maximin")
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--n-seeds", type=int, default=10)
    args = ap.parse_args(argv)

    cli = ["search-maximin", "--out", args.out, "--budget", str(args.budget)]
    for seed in range(args.n_seeds):
        cli += ["--seed", str(seed)]
    return main(cli)


if __name__ == "__main__":
    sys.exit(run())
