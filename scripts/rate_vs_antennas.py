#!/usr/bin/env python3
"""Produce the rate-vs-array-size comparison data at desk scale.

Sweeps the trellis solver and the greedy baseline over N = 5..50 for one and
two users, and adds the exhaustive optimum over the range where enumeration
is affordable. Output lands in ``runs/rate_vs_antennas/`` as plot-ready
``.dat`` files plus CSV summaries.
"""

import argparse
import sys

from pinchsel.cli import main


def run(trials: int, seed: int, out_root: str) -> int:
    for users in (1, 2):
        rc = main(
            [
                "sweep", "--n", "5..50:5", "--solvers", "vss,pgga",
                "--users", str(users), "--trials", str(trials), "--seed", str(seed),
                "--out-dir", f"{out_root}/M{users}",
            ]
        )
        if rc:
            return rc
        # exhaustive optimum up to N=20, where the split-table oracle is cheap
        rc = main(
            [
                "sweep", "--n", "5..20:5", "--solvers", "brute",
                "--users", str(users), "--trials", str(trials), "--seed", str(seed),
                "--out-dir", f"{out_root}/M{users}/oracle",
            ]
        )
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=150)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default="runs/rate_vs_antennas")
    args = parser.parse_args()
    sys.exit(run(args.trials, args.seed, args.out_dir))
