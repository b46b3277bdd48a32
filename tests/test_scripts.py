import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_run_verification_writes_reports_and_digests(tmp_path):
    """scripts/run_verification.py, whose sha256 column fingerprints the
    canonical payload, runs a one-configuration panel: exit 0, one JSON and
    CSV report pair, and a 16-hex-digit digest in the summary row."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dunklriesz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verification.py"), "--configs", "z2:0.5",
         "--degree", "8", "--checks", "eigen", "kernel_decay", "riesz_l2", "--out-dir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path / "out")) == ["report_z2_0.5.csv", "report_z2_0.5.json"]
    header, row = [line.split() for line in done.stdout.splitlines() if line.strip()]
    assert header[-1] == "sha256" and row[0] == "z2:0.5"
    assert re.fullmatch(r"[0-9a-f]{16}", row[-1])


@pytest.mark.parametrize("spec", ["a2:1", "i2(5):1"])
def test_run_verification_exact_and_float_planar(tmp_path, spec):
    """The exact (a2) and float (i2(5)) routes of the basis and the delta_j
    matrices through scripts/run_verification.py: exit 0, eigen and riesz_l2
    pass, and a 16-hex-digit digest."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dunklriesz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verification.py"), "--configs", spec,
         "--degree", "6", "--checks", "eigen", "riesz_l2", "--out-dir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, row = [line.split() for line in done.stdout.splitlines() if line.strip()]
    assert header[:3] == ["config", "eigen", "riesz_l2"] and header[-1] == "sha256"
    assert row[:3] == [spec, "pass", "pass"]
    assert re.fullmatch(r"[0-9a-f]{16}", row[-1])


PLANAR_DIGESTS = {
    "a2:1": "e86b352a0a0d821b",
    "b2:1,2": "814279cb30c54bf9",
    "i2(6):1,1": "f3ba852fa700cfb3",
    "i2(5):1": "a2437f0cdaf18d8f",
}


def test_run_verification_planar_digests_pinned(tmp_path):
    """The planar panel of scripts/run_verification.py at N = 8 (exact a2, b2
    and i2(6), float i2(5)) keeps its report digests, so a bit moved on the
    exact or the float planar route fails here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dunklriesz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verification.py"), "--configs", *PLANAR_DIGESTS,
         "--degree", "8", "--out-dir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line.strip()][1:]
    assert {row[0]: row[-1] for row in rows} == PLANAR_DIGESTS


def test_run_verification_z2_digest_pinned(tmp_path):
    """z2 kappa = 1/2 at the default N = 24 (exact basis, every check) keeps
    its report digest, so a bit moved on the exact z2 build, its eigen check
    or the heat series fails here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dunklriesz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verification.py"), "--configs", "z2:0.5", "--out-dir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line.strip()][1:]
    assert {row[0]: row[-1] for row in rows} == {"z2:0.5": "5c500d36d7d6a011"}
