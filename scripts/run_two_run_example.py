#!/usr/bin/env python3
"""Two-run worked example with baselines and a noise-mismatch report.

132 slots per run presented twice, the second run offset by half a scan
(2.5 s events, 2.5 s scans, AR(1) rho = 0.3, quadratic drift).  Compares the
found sequence against block, shift-register and constrained-random
baselines, and reports how much worst-case value the rho = 0.3 design
retains when the true correlation is 0 or 0.5.
"""

import argparse
import sys

from mmdesign.cli import main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/two_run_example")
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--n-seeds", type=int, default=3)
    ap.add_argument("--n-random", type=int, default=100)
    args = ap.parse_args(argv)

    cli = ["example-miezin", "--out", args.out, "--budget", str(args.budget),
           "--n-random", str(args.n_random)]
    for seed in range(args.n_seeds):
        cli += ["--seed", str(seed)]
    return main(cli)


if __name__ == "__main__":
    sys.exit(run())
