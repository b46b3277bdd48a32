#!/usr/bin/env python3
"""Run the full verification suite over a panel of group/multiplicity
configurations and print a summary table.

Writes one JSON + CSV report pair per configuration.  The `sha256` column
holds the first 16 hex digits of the sha256 of the report's canonical
payload (json.dumps with sorted keys): a fingerprint for checking that two
runs or two versions of the code produce the same report.

    python scripts/run_verification.py --out-dir reports
    python scripts/run_verification.py --configs z2:0.5 z2^2:1,1 --degree 16
"""

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from dunklriesz.hermite import build_basis
from dunklriesz.reflection import root_system
from dunklriesz.verify import VerifyConfig, run_checks

DEFAULT_PANEL = ["z2:0", "z2:0.5", "z2:1", "z2^2:1,1"]


def parse_config(spec: str):
    name, _, kap = spec.partition(":")
    mult = [Fraction(s) for s in kap.split(",")] if kap else [Fraction(0)]
    return name, mult if len(mult) > 1 else mult[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", nargs="*", default=DEFAULT_PANEL,
                    help="group:kappa[,kappa...] specs")
    ap.add_argument("--degree", type=int, default=24,
                    help="basis truncation (>= 24 keeps the Mehler check "
                    "inside its truncation-tail budget at r = 0.5)")
    ap.add_argument("--seed", type=int, default=VerifyConfig().seed)
    ap.add_argument("--checks", nargs="*", default=None)
    ap.add_argument("--out-dir", default="reports")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    cfg = VerifyConfig(seed=args.seed)
    rows = []
    for spec in args.configs:
        name, mult = parse_config(spec)
        rs = root_system(name, multiplicity=mult)
        t0 = time.time()
        basis = build_basis(rs, args.degree)
        report = run_checks(basis, args.checks, cfg)
        wall = time.time() - t0
        tag = spec.replace(":", "_").replace(",", "-").replace("^", "")
        path = os.path.join(args.out_dir, f"report_{tag}")
        with open(path + ".json", "w") as fh:
            fh.write(report.to_json())
        with open(path + ".csv", "w") as fh:
            fh.write(report.constants_csv())
        statuses = {c.name: c.status for c in report.checks}
        payload = json.dumps(report.canonical_payload(), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        rows.append((spec, statuses, wall, digest))

    names = sorted({n for _, st, _, _ in rows for n in st})
    width = max(len(n) for n in names) + 2
    print("\n" + "config".ljust(14) + "".join(n.ljust(width) for n in names) + "wall[s]  sha256")
    bad = 0
    for spec, statuses, wall, digest in rows:
        line = spec.ljust(14)
        for n in names:
            s = statuses.get(n, "-")
            bad += s == "fail"
            line += s.ljust(width)
        print(line + f"{wall:7.1f}  {digest}")
    print()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
