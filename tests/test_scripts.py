import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import dunklriesz

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_kernel_profiles_writes_finite_csvs(tmp_path):
    """scripts/kernel_profiles.py, the one other consumer of
    riesz_kernel_many and hormander_integrals, runs to the end and writes
    its three profiles: a header and 120, 64 and 16 rows of finite values."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dunklriesz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, str(SCRIPTS / "kernel_profiles.py"), "--out-dir", "out"],
                   cwd=tmp_path, env=env, capture_output=True, check=True)
    for name, lines in (("heat_scan.csv", 121), ("riesz_decay.csv", 65),
                        ("hormander_scan.csv", 17)):
        with open(tmp_path / "out" / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == lines
        assert all(len(row) == len(rows[0]) == 3 for row in rows)
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
