"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench -q

The metric tests run the cheapest workload (eval-points) for one round.
The oracle tests feed each correctness check the program's own value, which
must pass, and a perturbed one, which must be rejected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dunklriesz import hermite, kernels  # noqa: E402
from dunklriesz.reflection import root_system  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-points",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert type(out["attempted"]) is int and out["attempted"] >= 1
    assert type(out["failed"]) is int and out["failed"] == 0
    assert out["attempted"] % (workloads.RIESZ_ROWS + workloads.HEAT_ROWS + workloads.MEHLER_ROWS) == 0
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[key]}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_declared_metrics_and_workloads_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert layers.PER_LAYER == [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert list(workloads.WORKLOADS) == [w["name"] for w in BENCH["workloads"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each correctness check rejects a perturbed value


def _perturbed(values, i=0, factor=1.0 + 1e-6):
    out = list(values)
    out[i] = out[i] * factor
    return out


def test_rank_one_dunkl_kernel_check():
    rs = root_system("z2", multiplicity=0.5)
    pts = [(1.3, -7.0), (3.0, 4.0), (-2.5, 6.0)]
    got = [kernels.dunkl_kernel_z2d(rs, [x], [y]) for x, y in pts]
    want = [oracle.dunkl_1d(0.5, x * y) for x, y in pts]
    assert oracle.check_close("E", got, want, 1e-10) == []
    assert oracle.check_close("E", _perturbed(got, 1, 1 + 1e-9), want, 1e-10)


def test_heat_kernel_checks():
    basis = hermite.build_basis(root_system("z2", multiplicity=0.5), 0)
    rows = [(0.05, 1.0, -1.2), (1.5, 0.3, 0.2)]
    got = [kernels.heat_kernel(basis, t, [x], [y]) for t, x, y in rows]
    want = [oracle.heat_1d(0.5, t, x, y) for t, x, y in rows]
    assert oracle.check_close("k", got, want, 1e-10) == []
    assert oracle.check_close("k", _perturbed(got, 0, 1 + 1e-9), want, 1e-10)

    basis = hermite.build_basis(root_system("z2^2", multiplicity=list(workloads.HEAT_KAPPA)), 0)
    t, x, y = 0.3, [0.4, -1.1], [1.2, 0.7]
    got = [kernels.heat_kernel(basis, t, x, y)]
    want = [oracle.heat_z2d(workloads.HEAT_KAPPA, t, x, y)]
    assert oracle.check_close("k2", got, want, 1e-9) == []
    assert oracle.check_close("k2", _perturbed(got, 0, 1 + 1e-8), want, 1e-9)


def test_riesz_kernel_check():
    basis = hermite.build_basis(root_system("z2", multiplicity=1.0), 0)
    got = [kernels.riesz_kernel(basis, 1, [0.5], [1.2])]
    want = [oracle.riesz_1d(1.0, 0.5, 1.2)]
    assert oracle.check_close("K", got, want, 1e-7) == []
    assert oracle.check_close("K", _perturbed(got, 0, 1 + 1e-6), want, 1e-7)


def test_orthonormality_check():
    basis = hermite.build_basis(root_system("b2", multiplicity=[1, 2]), 4)
    roots, kap = oracle.dihedral_roots("b2", [1, 2])
    assert oracle.check_orthonormal(basis.hermite_function_matrix, roots, kap, 4) == []

    def perturbed(x):
        h = basis.hermite_function_matrix(x)
        h[3] *= 1 + 1e-7
        return h

    assert oracle.check_orthonormal(perturbed, roots, kap, 4)
    # the orbits' multiplicities swapped is a different weight
    assert oracle.check_orthonormal(basis.hermite_function_matrix, roots, kap[::-1], 4)


def test_dunkl_kernel_property_check():
    basis = hermite.build_basis(root_system("a2", multiplicity=1), 8)
    cfg = kernels.KernelConfig(mehler_r_cap=workloads.MEHLER_R_CAP)
    E = lambda x, y: kernels.dunkl_kernel(basis, x, y, cfg)  # noqa: E731
    roots, _ = oracle.dihedral_roots("a2", 1)
    mats = oracle.group_matrices(roots)
    assert len(mats) == 6
    pts = np.array(workloads.eval_points(5)["mehler"][:6])
    X, Y = pts[:, :2], pts[:, 2:]
    values = [E(x, y) for x, y in zip(X, Y)]
    assert oracle.check_dunkl_kernel_properties(E, mats, X, Y, values, probe=2) == []
    assert oracle.check_dunkl_kernel_properties(E, mats, X, Y, _perturbed(values, 1, 1 + 1e-5), probe=2)
    big = _perturbed(values, 4, 50.0)  # above e^(max_g <gx, y>), not probed
    assert oracle.check_dunkl_kernel_properties(E, mats, X, Y, big, probe=2)
    assert oracle.check_dunkl_kernel_properties(E, mats, X, Y, _perturbed(values, 5, -1.0), probe=2)


def test_status_check():
    expected = workloads.expected_statuses("a2")
    report = {"checks": [{"name": n, "status": s} for n, s in expected.items()],
              "config": {"exact": True}}
    assert oracle.check_statuses(report, expected, True) == []
    report["config"]["exact"] = False
    assert oracle.check_statuses(report, expected, True)
    report["config"]["exact"] = True
    report["checks"][0]["status"] = "fail"
    assert oracle.check_statuses(report, expected, True)
    assert oracle.check_statuses({"checks": []}, expected, True)
