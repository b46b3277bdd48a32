"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup``, runs one round of
timed calls into the program's command-line entry point (``cli.main``, the
function behind the ``dunklriesz`` command) in ``round``, and checks the
outputs of a round against references computed apart from the program in
``check``.  A round is always the same list of operations, so the share of
failed operations does not depend on how many rounds a run makes.

* z2-verify: ``dunklriesz verify --group z2 --kappa 0.5 --degree 24`` with
  all nine checks, the README's own example.  The kernels layer (Bessel
  log-brackets, Riesz panels) and the verify fits do the work.
* exact-verify: ``verify`` in exact surd arithmetic on a2, b2 and i2(6).
  Basis builds, ``eigen`` and the ``riesz_l2`` delta matrices do the work;
  every kernel check skips, so the kernels layer is bypassed.
* eval-points: ``dunklriesz eval`` over point files, one kernel per row:
  the adaptive Riesz kernel on z2, the heat kernel on z2^2, and the Mehler
  route Dunkl kernel on a2 from a basis file written during set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from dunklriesz import cli, hermite, kernels
from dunklriesz.reflection import root_system

import oracle

CHECKS = (
    "eigen", "mehler", "heat", "lemma_bounds", "kernel_decay", "hormander",
    "riesz_l2", "integral_representation", "lp_empirical",
)
# What each check documents it needs; a group without it gets "skip".
NEEDS_Z2D = {"mehler", "heat", "lemma_bounds"}
NEEDS_RANK_ONE_Z2 = {"kernel_decay", "hormander", "integral_representation", "lp_empirical"}


@dataclass
class Round:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    outputs: dict = field(default_factory=dict)


def call_cli(argv: list[str]) -> tuple[bool, float]:
    """Run ``dunklriesz <argv>`` in-process; returns (exit code 0, seconds).

    A raised exception counts as a failed call; its traceback goes to stderr.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t = time.perf_counter()
        try:
            ok = cli.main(argv) == 0
        except Exception:
            ok = False
            dt = time.perf_counter() - t
            traceback.print_exc(file=sys.stderr)
        else:
            dt = time.perf_counter() - t
    return ok, dt


def _remove(path: str):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


# ---------------------------------------------------------------------------
# verify workloads


@dataclass
class VerifyJob:
    label: str
    config: dict
    expected: dict      # check name -> documented status
    rs: object = None
    config_path: str = ""
    report_path: str = ""


def expected_statuses(group: str) -> dict:
    if group == "z2":
        return {name: "pass" for name in CHECKS}
    return {
        name: "skip" if name in NEEDS_Z2D | NEEDS_RANK_ONE_Z2 else "pass"
        for name in CHECKS
    }


class VerifyWorkload:
    def __init__(self, configs: list[tuple[str, dict]]):
        self.configs = configs

    def setup(self, work: str, seed: int) -> dict:
        os.makedirs(work, exist_ok=True)
        jobs = []
        for label, cfg in self.configs:
            job = VerifyJob(label, cfg, expected_statuses(cfg["group"]))
            job.rs = root_system(cfg["group"], multiplicity=cfg["kappa"])
            job.config_path = os.path.join(work, f"{label}.config.json")
            job.report_path = os.path.join(work, f"{label}.report")
            with open(job.config_path, "w") as fh:
                json.dump({**cfg, "seed": seed, "out": job.report_path, "checks": list(CHECKS)}, fh)
            jobs.append(job)
        return {"jobs": jobs, "seed": seed}

    def round(self, state: dict) -> Round:
        r = Round()
        for job in state["jobs"]:
            _remove(job.report_path + ".json")
            _, dt = call_cli(["verify", "--config", job.config_path])
            r.wall_s += dt
            try:
                with open(job.report_path + ".json") as fh:
                    report = json.load(fh)
            except (OSError, json.JSONDecodeError):
                report = {}
            status = {c["name"]: c["status"] for c in report.get("checks", [])}
            r.attempted += len(CHECKS)
            r.failed += sum(status.get(name, "fail") == "fail" for name in CHECKS)
            r.outputs[job.label] = report
        return r

    def check(self, state: dict, r: Round) -> list[str]:
        # every group here has exact coordinates, so "auto" arithmetic is exact too
        problems = []
        for job in state["jobs"]:
            problems += [
                f"{job.label}: {p}"
                for p in oracle.check_statuses(r.outputs.get(job.label, {}), job.expected, exact=True)
            ]
        return problems + self.check_program(state)

    def check_program(self, state: dict) -> list[str]:
        return []


class Z2Verify(VerifyWorkload):
    def check_program(self, state: dict) -> list[str]:
        """Rank-one Dunkl and heat kernels at kappa = 1/2 against 0F1."""
        rs = state["jobs"][0].rs
        kappa = float(rs.multiplicity[0])
        rng = np.random.default_rng([state["seed"], 11])
        x = rng.uniform(-4.0, 4.0, 8)
        y = rng.uniform(-10.0, 10.0, 8)
        got = [kernels.dunkl_kernel_z2d(rs, [a], [b]) for a, b in zip(x, y)]
        want = [oracle.dunkl_1d(kappa, a * b) for a, b in zip(x, y)]
        problems = oracle.check_close("dunkl_kernel z2", got, want, 1e-10)
        basis = hermite.build_basis(rs, 0)
        t = np.exp(rng.uniform(math.log(0.02), math.log(3.0), 6))
        x = rng.uniform(-2.0, 2.0, 6)
        y = rng.uniform(-2.0, 2.0, 6)
        got = [kernels.heat_kernel(basis, tt, [a], [b]) for tt, a, b in zip(t, x, y)]
        want = [oracle.heat_1d(kappa, tt, a, b) for tt, a, b in zip(t, x, y)]
        return problems + oracle.check_close("heat_kernel z2", got, want, 1e-10)


class ExactVerify(VerifyWorkload):
    def check_program(self, state: dict) -> list[str]:
        """Orthonormality of each group's h_n under w_kappa dx."""
        problems = []
        for job in state["jobs"]:
            basis = hermite.build_basis(job.rs, job.config["degree"])
            roots, kap = oracle.dihedral_roots(job.config["group"], job.config["kappa"])
            problems += [
                f"{job.label}: {p}"
                for p in oracle.check_orthonormal(basis.hermite_function_matrix, roots, kap, basis.N)
            ]
        return problems


# ---------------------------------------------------------------------------
# eval workload

RIESZ_ROWS = 40          # about 30 ms each through the adaptive quadrature
HEAT_ROWS = 2000         # closed form, about 0.2 ms each
MEHLER_ROWS = 160        # Mehler sum over 45 basis functions, about 5 ms each
RIESZ_BOX = 2.0          # |x|, |y| <= 2: values stay well above underflow
ORBIT_FLOOR = 0.25       # min(|x - y|, |x + y|): far from the kernel's singularity
HEAT_T = (0.05, 2.0)     # log-uniform time range
HEAT_BOX = 1.5
MEHLER_BOX = 0.5         # with r cap 0.1, every point evaluates at N = 8
MEHLER_R_CAP = 0.1
HEAT_KAPPA = (0.5, 1.0)  # Bessel orders 0 and 1/2 on the two axes
RIESZ_ORACLE_ROWS = 3
HEAT_ORACLE_STRIDE = 10
MEHLER_PROBE_ROWS = 4

# part: (eval --what, basis group, --kappa, basis degree, point columns).
# The z2 and z2^2 kernels use only the root system and constants of the
# basis, so those bases stay small.
PARTS = {
    "riesz": ("riesz-kernel", "z2", "1", 4, ["j", "x0", "y0"]),
    "heat": ("heat-kernel", "z2^2", "0.5,1", 4, ["t", "x0", "x1", "y0", "y1"]),
    "mehler": ("dunkl-kernel", "a2", "1", 8, ["x0", "x1", "y0", "y1"]),
}


def _write_points(path: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) for v in row])


def _read_output(path: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1:]
    except OSError:
        return []


def eval_points(seed: int) -> dict:
    """Point rows of the three parts, from the seed alone."""
    rng = np.random.default_rng([seed, 1])
    riesz = []
    while len(riesz) < RIESZ_ROWS:
        x, y = rng.uniform(-RIESZ_BOX, RIESZ_BOX, 2)
        if min(abs(x - y), abs(x + y)) >= ORBIT_FLOOR:
            riesz.append((1, x, y))
    rng = np.random.default_rng([seed, 2])
    t = np.exp(rng.uniform(math.log(HEAT_T[0]), math.log(HEAT_T[1]), HEAT_ROWS))
    heat = np.column_stack([t, rng.uniform(-HEAT_BOX, HEAT_BOX, (HEAT_ROWS, 4))])
    rng = np.random.default_rng([seed, 3])
    mehler = rng.uniform(-MEHLER_BOX, MEHLER_BOX, (MEHLER_ROWS, 4))
    return {"riesz": riesz, "heat": heat.tolist(), "mehler": mehler.tolist()}


class EvalPoints:
    def setup(self, work: str, seed: int) -> dict:
        os.makedirs(work, exist_ok=True)
        state = {"seed": seed, "parts": {}}
        points = eval_points(seed)
        kcfg = os.path.join(work, "kernel.config.json")
        with open(kcfg, "w") as fh:
            json.dump({"kernel": {"mehler_r_cap": MEHLER_R_CAP}}, fh)
        for part, (what, group, kappa, degree, header) in PARTS.items():
            basis_path = os.path.join(work, f"{part}.basis.json")
            ok, _ = call_cli(["basis", "--group", group, "--kappa", kappa,
                              "--degree", str(degree), "--out", basis_path])
            if not ok:
                raise RuntimeError(f"dunklriesz basis failed for {group}")
            pts = os.path.join(work, f"{part}.points.csv")
            _write_points(pts, header, points[part])
            out = os.path.join(work, f"{part}.values.csv")
            argv = ["eval", "--basis-file", basis_path, "--what", what,
                    "--points", pts, "--out", out]
            if part == "mehler":
                argv += ["--config", kcfg]
            state["parts"][part] = {"argv": argv, "out": out, "points": points[part],
                                    "basis": basis_path}
        return state

    def round(self, state: dict) -> Round:
        r = Round()
        for part, job in state["parts"].items():
            _remove(job["out"])
            _, dt = call_cli(job["argv"])
            r.wall_s += dt
            rows = _read_output(job["out"])
            n = len(job["points"])
            ok = [row for row in rows if row and row[-1] == "ok"]
            r.attempted += n
            r.failed += max(n - len(ok), 0)
            r.rows += len(rows)
            r.outputs[part] = rows
        return r

    def check(self, state: dict, r: Round) -> list[str]:
        problems = []
        parts = state["parts"]
        for part, job in parts.items():
            if len(r.outputs.get(part, [])) != len(job["points"]):
                problems.append(f"{part}: {len(r.outputs.get(part, []))} rows for {len(job['points'])} points")
        if problems:
            return problems

        def values(part):
            return [float(row[-2]) if row[-1] == "ok" else math.nan for row in r.outputs[part]]

        pts = parts["riesz"]["points"][:RIESZ_ORACLE_ROWS]
        want = [oracle.riesz_1d(1.0, x, y) for _, x, y in pts]
        problems += oracle.check_close("riesz_kernel z2", values("riesz")[:RIESZ_ORACLE_ROWS], want, 1e-7)

        rows = parts["heat"]["points"][::HEAT_ORACLE_STRIDE]
        want = [oracle.heat_z2d(HEAT_KAPPA, p[0], p[1:3], p[3:5]) for p in rows]
        problems += oracle.check_close("heat_kernel z2^2", values("heat")[::HEAT_ORACLE_STRIDE], want, 1e-9)

        basis = hermite.load_basis(parts["mehler"]["basis"])
        kcfg = kernels.KernelConfig(mehler_r_cap=MEHLER_R_CAP)
        roots, _ = oracle.dihedral_roots("a2", 1)
        pts = np.array(parts["mehler"]["points"])
        problems += oracle.check_dunkl_kernel_properties(
            lambda x, y: kernels.dunkl_kernel(basis, x, y, kcfg),
            oracle.group_matrices(roots), pts[:, :2], pts[:, 2:], values("mehler"),
            MEHLER_PROBE_ROWS,
        )
        return problems


WORKLOADS = {
    "z2-verify": Z2Verify([("z2", {"group": "z2", "kappa": 0.5, "degree": 24})]),
    "exact-verify": ExactVerify([
        ("a2", {"group": "a2", "kappa": 1, "degree": 8, "arithmetic": "exact"}),
        ("b2", {"group": "b2", "kappa": [1, 2], "degree": 8, "arithmetic": "exact"}),
        ("i2_6", {"group": "i2(6)", "kappa": [1, 1], "degree": 6, "arithmetic": "exact"}),
    ]),
    "eval-points": EvalPoints(),
}
