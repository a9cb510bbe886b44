#!/usr/bin/env python3
"""Two search strategies for two stimulus types over the reduced direction set.

242 slots, 4 s spacing, 2 s scans, AR(1) rho = 0.3, quadratic drift.  The
first search runs over all label sequences and reports the permutation-image
efficiency bound alongside the worst case; the second restricts the space to
cyclic concatenations of a relabeled short sequence.
"""

import argparse
import os
import sys

from mmdesign.cli import main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/two_type_restricted")
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--n-seeds", type=int, default=10)
    args = ap.parse_args(argv)

    common = ["--q", "2", "--length", "242", "--budget", str(args.budget)]
    for seed in range(args.n_seeds):
        common += ["--seed", str(seed)]

    rc = main(["search-maximin", "--space", "xi",
               "--out", os.path.join(args.out, "full_space")] + common)
    if rc != 0:
        return rc
    return main(["search-maximin", "--space", "xi0",
                 "--out", os.path.join(args.out, "concatenated")] + common)


if __name__ == "__main__":
    sys.exit(run())
