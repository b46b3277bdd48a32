"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 3 is implemented
literally and marked strict-xfail: its stated parameter triple (N=12 with
r up to 0.5 at 1e-6) is defeated by the truncation tail of the Mehler sum
itself (~1e-4 at the corner); the companion test shows the formula holding
at parameters the tail arithmetic actually permits.  Details in the repo
notes; everything else passes as stated.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dunklriesz.hermite import build_basis, pairing
from dunklriesz.kernels import heat_kernel, heat_kernel_series
from dunklriesz.polyalg import get_algebra
from dunklriesz.qfield import Surd
from dunklriesz.reflection import gamma_exact, root_system
from dunklriesz.spectral import (
    delta_matrix,
    operator_norm,
    quadrature_rule,
    riesz_matrix,
)
from dunklriesz.verify import (
    VerifyConfig,
    check_heat,
    check_hormander,
    check_integral_representation,
    check_kernel_decay,
    check_lemma_bounds,
    check_lp_empirical,
    check_mehler,
)

CFG = VerifyConfig()

CRITERION_CONFIGS = [
    ("z2", 0),
    ("z2", Fraction(1, 2)),
    ("z2", 1),
    ("z2", 2),
    ("z2^2", [1, 1]),
    ("a2", 1),
    ("i2(4)", [1, 1]),
]


@pytest.fixture(scope="module")
def bases6():
    out = {}
    for name, mult in CRITERION_CONFIGS:
        rs = root_system(name, multiplicity=mult)
        out[(name, str(mult))] = build_basis(rs, 6)
    return out


@pytest.fixture(scope="module")
def z2_half_30():
    return build_basis(root_system("z2", multiplicity=Fraction(1, 2)), 30)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_exact_eigenfunction_identity(bases6):
    """Zero-residual oscillator eigenvalue identity, all |n| <= 6."""
    failures = []
    for (name, mult), b in bases6.items():
        alg = get_algebra(b.rs, True)
        for i, n in enumerate(b.indices):
            lam = Surd.of(2 * sum(n)) + Surd.of(2) * Surd.of(gamma_exact(b.rs)) + Surd.of(b.rs.dim)
            resid = alg.conjugated_oscillator(b.H_raw[i]) - b.H_raw[i].scale(lam)
            if not resid.is_zero():
                failures.append((name, mult, n))
    ok = not failures
    assert report(1, ok, f"exact eigen identity, {len(bases6)} configs, residual 0"), failures


def test_criterion_02_orthonormality(bases6):
    """[phi_m, phi_n] = delta exactly; <h_m, h_n> = delta to 1e-6 by quadrature."""
    exact_ok = True
    for key in [("z2", str(Fraction(1, 2))), ("z2^2", str([1, 1]))]:
        b = build_basis(bases6[key].rs, 8)
        for i in range(b.size):
            for j in range(i + 1):
                val = pairing(b.rs, b.psi[i], b.psi[j])
                if i == j:
                    exact_ok &= (val / b.norms[i]) == Surd.of(1)
                else:
                    exact_ok &= val == Surd.of(0)
        rule = quadrature_rule(b.rs, 2 * b.N + 8)
        hm = b.hermite_function_matrix(rule.nodes)
        boost = np.exp(np.sum(rule.nodes**2, axis=-1) / 2.0)
        G = (hm * boost) @ ((hm * boost) * rule.weights).T
        l2_resid = float(np.max(np.abs(G - np.eye(b.size))))
        exact_ok &= l2_resid < 1e-6
    assert report(2, exact_ok, "pairing orthonormality exact + L2 orthonormality < 1e-6")


@pytest.mark.xfail(
    strict=True,
    reason="criterion 3 is unattainable as stated: the Mehler truncation tail "
    "at (N=12, r=0.5) is ~1e-4 > 1e-6 for every kappa; see the decisions notes "
    "and the companion test for the formula holding at tail-consistent "
    "parameters",
)
def test_criterion_03_mehler_as_stated():
    """Literal criterion: N=12, r <= 0.5, rel err < 1e-6, kappa in {0, 1/2, 1}."""
    worst = 0.0
    for mult in (0, Fraction(1, 2), 1):
        b = build_basis(root_system("z2", multiplicity=mult), 12)
        r = check_mehler(b, CFG)  # r grid 0.1 .. 0.5, tolerance 1e-6
        worst = max(worst, r.residuals["max_rel_err"])
        if r.status != "pass":
            report(3, False, f"Mehler at N=12, r<=0.5: max rel err {worst:.2e} > 1e-6")
            assert False
    report(3, True, "Mehler formula at N=12, r<=0.5")


def test_criterion_03_mehler_tail_consistent_parameters():
    """Companion: the Mehler identity itself holds to 1e-6 once the truncation
    supports the r-range: N=24 covers r <= 0.5, N=12 covers r <= 0.25."""
    ok = True
    for mult in (0, Fraction(1, 2), 1):
        rs = root_system("z2", multiplicity=mult)
        r24 = check_mehler(build_basis(rs, 24), CFG)
        ok &= r24.status == "pass"
        from dataclasses import replace

        r12 = check_mehler(build_basis(rs, 12), replace(CFG, mehler_r_values=(0.1, 0.25)))
        ok &= r12.status == "pass"
    assert report(3, ok, "Mehler formula < 1e-6 at tail-consistent (N, r): "
                  "N=24 @ r<=0.5, N=12 @ r<=0.25 (literal N=12 @ r=0.5 is xfail)")


def test_criterion_04_heat_kernel_consistency(bases6):
    """Closed form (corrected constant) vs spectral series to 1e-6; exact
    kappa=0 reduction to 1e-10; the printed constant MUST fail by 2^(g+d/2)."""
    b = bases6[("z2", str(Fraction(1, 2)))]
    r = check_heat(b, CFG)
    ok = r.status == "pass"
    # the discrepancy factor, asserted directly as well
    t, x, y = 0.3, [1.0], [0.5]
    printed = heat_kernel(b, t, x, y, prefactor="printed")
    series = heat_kernel_series([0.5], t, x, y)
    factor = printed / heat_kernel(b, t, x, y)
    ok &= abs(factor - 2.0 ** (b.gamma + 0.5)) < 1e-12
    ok &= abs(printed - series) / series > 1e-6 * 100
    assert report(4, ok, f"heat closed-vs-series < 1e-6, printed constant off by {factor:.1f}")


def test_criterion_05_riesz_l2_bound(bases6):
    """||R_j|| <= sqrt(2) + 1e-8 and delta/delta* transpose-adjointness
    <= 1e-10, for every criterion-1 configuration."""
    worst_norm, worst_adj = 0.0, 0.0
    for (name, mult), b in bases6.items():
        for j in range(1, b.rs.dim + 1):
            worst_norm = max(worst_norm, operator_norm(riesz_matrix(b, j)))
            D = delta_matrix(b, j, "lower")
            Dr = delta_matrix(b, j, "raise")
            rows = [i for i, n in enumerate(b.indices) if sum(n) <= b.N - 1]
            worst_adj = max(worst_adj, float(np.max(np.abs(D.values - Dr.values.T)[rows, :])))
    ok = worst_norm <= math.sqrt(2) + 1e-8 and worst_adj <= 1e-10
    assert report(5, ok, f"max ||R|| = {worst_norm:.6f} <= sqrt2, adjoint residual {worst_adj:.1e}")


def test_criterion_06_ladder_reduction(bases6):
    """kappa=0: delta entries sqrt(2n) to 1e-10; kappa=1/2: R h_1 = h_0."""
    b0 = build_basis(root_system("z2", multiplicity=0), 8)
    D = delta_matrix(b0, 1, "lower")
    ok = all(
        abs(D.values[n - 1, n] - math.sqrt(2 * n)) < 1e-10 for n in range(1, 9)
    )
    bh = bases6[("z2", str(Fraction(1, 2)))]
    R = riesz_matrix(bh, 1)
    ok &= abs(R.values[0, 1] - 1.0) < 1e-10
    unit = np.zeros(bh.size)
    unit[1] = 1.0
    image = R.values @ unit
    ok &= abs(image[0] - 1.0) < 1e-10 and np.max(np.abs(image[1:])) < 1e-10
    assert report(6, ok, "classical ladder sqrt(2n) and R h_1 = h_0 at kappa=1/2")


def test_criterion_07_kernel_decay(bases6):
    """C_fit for |K| * orbit-distance^(2g+d) stable under 2x refinement."""
    ok = True
    consts = []
    for mult in (0, Fraction(1, 2)):
        b = build_basis(root_system("z2", multiplicity=mult), 6)
        r = check_kernel_decay(b, CFG)
        ok &= r.status == "pass"
        consts.append(r.constants["C_decay"])
    assert report(7, ok, f"decay constants stable: C = {consts[0]:.3f} (k=0), {consts[1]:.3f} (k=1/2)")


def test_criterion_08_hormander(bases6):
    """Both Hormander conditions: bounded, no growth trend as delta -> 0,
    MC standard error < 5% of value, 5 separation scales."""
    b = bases6[("z2", str(Fraction(1, 2)))]
    r = check_hormander(b, CFG)
    ok = r.status == "pass"
    assert len(CFG.horm_separations) == 5
    assert report(
        8, ok,
        f"slopes ({r.constants['slope_direct']:+.4f}, {r.constants['slope_transposed']:+.4f})"
        f" <= 0.05, sup ({r.constants['sup_direct']:.3f}, {r.constants['sup_transposed']:.3f})",
    )


def test_criterion_09_integral_representation(z2_half_30):
    """Spectral route vs kernel quadrature to rel 1e-3, bump on [2,3],
    x in {0.2, 0.5, 1.0}.  The spectral truncation must actually converge
    (~3000 terms; the bump's Hermite tail decays like exp(-c n^(1/3)))."""
    r = check_integral_representation(z2_half_30, CFG)
    ok = r.status == "pass"
    assert report(
        9, ok,
        f"two routes agree: max rel err {r.residuals['max_rel_err']:.2e} < 1e-3 "
        f"(at the N=30 matrix truncation the error is "
        f"{r.residuals['rel_err_at_basis_truncation']:.1f}; see notes)",
    )


def test_criterion_10_lemma_bounds(bases6):
    """All 14 inequalities pass the constant-fit stability protocol at
    a = b = 1/8, c = 1/16 (d=1 Z2, kappa = 1/2)."""
    b = bases6[("z2", str(Fraction(1, 2)))]
    r = check_lemma_bounds(b, CFG)
    ok = r.status == "pass" and len(r.constants) == 14
    worst_growth = max(v for v in r.residuals.values() if isinstance(v, float))
    assert report(10, ok, f"14/14 C_fits stable, worst refinement growth {worst_growth:+.3f}")


def test_criterion_11_lp_soft_evidence(bases6):
    """Empirical |Rf|_p/|f|_p bounded over 50 random band-limited f;
    at p=2 the max ratio respects sqrt(2) + 0.05.  SOFT EVIDENCE only."""
    b = build_basis(root_system("z2", multiplicity=Fraction(1, 2)), 21)
    r = check_lp_empirical(b, CFG)
    ok = r.status == "pass"
    assert report(
        11, ok,
        f"ratios bounded; p=2 max {r.constants['p=2.0_max']:.4f} <= sqrt2 + 0.05 (soft evidence)",
    )
