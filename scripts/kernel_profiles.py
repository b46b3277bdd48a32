#!/usr/bin/env python3
"""Dump kernel profiles to CSV for inspection/plotting:

  * heat kernel k_t(x, y) against the classical kernel along a time scan,
  * Riesz kernel decay |K(x, y)| vs orbit separation with the fitted
    min-distance power law,
  * Hormander integral values vs separation scale delta.

    python scripts/kernel_profiles.py --kappa 0.5 --out-dir profiles
"""

import argparse
import csv
import math
import os
import sys
from fractions import Fraction

import numpy as np

from dunklriesz.hermite import build_basis
from dunklriesz.kernels import heat_kernel, heat_kernel_classical, riesz_kernel_many
from dunklriesz.reflection import root_system, weight
from dunklriesz.verify import hormander_integrals


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", default="0.5")
    ap.add_argument("--x", type=float, default=1.0)
    ap.add_argument("--y", type=float, default=0.5)
    ap.add_argument("--out-dir", default="profiles")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    kap = Fraction(args.kappa)
    rs = root_system("z2", multiplicity=kap)
    basis = build_basis(rs, 8)

    with open(os.path.join(args.out_dir, "heat_scan.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "k_t", "k_t_classical"])
        for t in np.geomspace(5e-3, 5.0, 120):
            wr.writerow([
                t,
                heat_kernel(basis, float(t), [args.x], [args.y]),
                heat_kernel_classical(float(t), [args.x], [args.y]),
            ])

    power = 2.0 * basis.gamma + 1.0
    with open(os.path.join(args.out_dir, "riesz_decay.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["separation", "K", "K_times_sep_pow"])
        seps = np.geomspace(0.05, 10.0, 64)
        X = np.full((seps.size, 1), args.x)
        Y = X + seps[:, None]
        K = riesz_kernel_many(basis, 1, X, Y)
        for s, k in zip(seps, K):
            wr.writerow([s, k, abs(k) * s**power])

    with open(os.path.join(args.out_dir, "hormander_scan.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["delta", "integral_direct", "integral_transposed"])
        for delta in np.geomspace(1e-3, 1.0, 16):
            I1, I2, _ = hormander_integrals(basis, 1.0, 1.0 + float(delta))
            wr.writerow([delta, I1, I2])

    print(f"profiles written to {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
