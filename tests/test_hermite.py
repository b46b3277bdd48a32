import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dunklriesz.hermite import (
    BasisChecksum,
    IndexOutOfTruncation,
    _dunkl_blocks,
    _gram_block,
    _gram_blocks,
    _indices_of_degree,
    basis_from_dict,
    basis_to_dict,
    build_basis,
    c_kappa,
    enumerate_indices,
    hermite_functions_1d,
    pairing,
    _c_kappa_moments,
)
from dunklriesz.polyalg import Polynomial, _add_scaled, _rational, get_algebra
from dunklriesz.qfield import Surd
from dunklriesz.reflection import gamma_exact, root_system, weight
from dunklriesz.verify import check_eigen


def test_enumerate_indices_graded_lex():
    idx = enumerate_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_pairing_examples(z2_half):
    one = get_algebra(z2_half).constant(1)
    x = get_algebra(z2_half).variable(1)
    assert pairing(z2_half, one, one) == Surd.of(1)
    assert pairing(z2_half, x, x) == Surd.of(2)  # 1 + 2 kappa
    assert pairing(z2_half, x, x * x) == Surd.of(0)  # different degrees


def test_pairing_symmetric(a2_one):
    alg = get_algebra(a2_one)
    p = alg.monomial((2, 1)) + alg.monomial((0, 1), Fraction(1, 3))
    q = alg.monomial((1, 2)) + alg.monomial((3, 0), Fraction(-2))
    assert pairing(a2_one, p, q) == pairing(a2_one, q, p)


def test_build_basis_degree1(z2_half):
    b = build_basis(z2_half, 1)
    # psi_0 = 1, psi_1 = x with [psi_1, psi_1] = 1 + 2k = 2, exact
    assert b.psi[0].terms == {(0,): Surd.of(1)} and b.norms[0] == Surd.of(1)
    assert b.psi[1].terms == {(1,): Surd.of(1)} and b.norms[1] == Surd.of(2)
    # phi_0 = 1, phi_1 = x / sqrt(1 + 2k) = x / sqrt(2), as the basis file writes it
    phi = basis_to_dict(b)["phi"]
    assert phi[0] == {"0": pytest.approx(1.0)}
    assert phi[1] == {"1": pytest.approx(1 / math.sqrt(2))}
    assert b.H[0].terms == {(0,): pytest.approx(1.0)}
    assert b.H[1].terms == {(1,): pytest.approx(2 / math.sqrt(2))}


def test_h0_is_one():
    for name, mult in [("z2", 2), ("a2", 1), ("b2", [1, 0.5])]:
        b = build_basis(root_system(name, multiplicity=mult), 0)
        assert b.H[0].terms == {(0,) * b.rs.dim: pytest.approx(1.0)}


def test_classical_hermite_reduction(z2_zero_basis8):
    """kappa = 0: H_n equals the physicists' Hermite polynomial / sqrt(n!),
    checked against the three-term recurrence as an independent oracle."""
    b = z2_zero_basis8
    coeffs = {0: {0: 1.0}, 1: {1: 2.0}}
    for n in range(2, 9):
        prev, prev2 = coeffs[n - 1], coeffs[n - 2]
        cur = {}
        for k, c in prev.items():
            cur[k + 1] = cur.get(k + 1, 0.0) + 2.0 * c
        for k, c in prev2.items():
            cur[k] = cur.get(k, 0.0) - 2.0 * (n - 1) * c
        coeffs[n] = cur
    for n in range(9):
        scale = math.sqrt(math.factorial(n))
        for k, c in coeffs[n].items():
            got = float(b.H[n].terms.get((k,), 0.0)) * scale
            assert got == pytest.approx(c, rel=1e-10, abs=1e-10)


def test_pairing_orthonormality_exact(z2_half_basis8):
    b = z2_half_basis8
    rs = b.rs
    for i in range(b.size):
        for j in range(i + 1):
            val = pairing(rs, b.psi[i], b.psi[j])
            if i == j:
                assert val == b.norms[i]
                # [phi_i, phi_i] = norms / norms = 1 exactly
                assert val / b.norms[i] == Surd.of(1)
            else:
                assert val == Surd.of(0)


def test_eigen_identity_exact_small(a2_one):
    b = build_basis(a2_one, 3)
    alg = get_algebra(a2_one)
    for i, n in enumerate(b.indices):
        lam = Surd.of(2 * sum(n) + 2 * 3 + 2)
        resid = alg.conjugated_oscillator(b.H_raw[i]) - b.H_raw[i].scale(lam)
        assert resid.is_zero()


def test_scaling_identity_exact(z2_half_basis8):
    """(e^{-Lap/2} p)(sqrt(2) x) = 2^(N/2) (e^{-Lap/4} p)(x) for homogeneous p."""
    b = z2_half_basis8
    alg = get_algebra(b.rs)
    from dunklriesz.polyalg import Polynomial

    s2 = Surd.sqrt_int(2)
    for i, n in enumerate(b.indices):
        N = sum(n)
        lhs = alg.exp_laplacian(b.psi[i], Fraction(-1, 2))
        lhs_scaled = Polynomial(1, {e: c * s2 ** sum(e) for e, c in lhs.terms.items()})
        rhs = alg.exp_laplacian(b.psi[i], Fraction(-1, 4)).scale(s2**N)
        assert (lhs_scaled - rhs).is_zero()


def test_c_kappa_closed_forms():
    assert c_kappa(root_system("z2", multiplicity=0)) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
    assert c_kappa(root_system("z2", multiplicity=1)) == pytest.approx(2 * math.sqrt(2 * math.pi), rel=1e-14)
    assert c_kappa(root_system("z2^2", multiplicity=[0, 0])) == pytest.approx(2 * math.pi, rel=1e-14)


def test_c_kappa_quadrature_oracle(z2_half):
    """Adaptive quadrature of e^{-|x|^2/2} w_kappa against the closed form."""
    from scipy.integrate import quad

    val, err = quad(lambda u: math.exp(-u * u / 2) * (2 * u * u) ** 0.5, -30, 30, limit=400)
    assert c_kappa(z2_half) == pytest.approx(val, rel=1e-9)


def _angular_quadrature_c_kappa(rs):
    """c_kappa of a planar group as the radial factor times adaptive quadrature
    of w_kappa over the circle, split at the mirrors where w_kappa vanishes."""
    from scipy.integrate import quad

    g = float(np.sum(rs.multiplicity))
    mirrors = np.arctan2(rs.positive_roots[:, 1], rs.positive_roots[:, 0]) + np.pi / 2
    breaks = sorted({float(a % np.pi + k * np.pi) for a in mirrors for k in range(2)})
    pts = [0.0] + [b for b in breaks if 0.0 < b < 2 * np.pi] + [2 * np.pi]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = quad(lambda t: weight(rs, np.array([np.cos(t), np.sin(t)])),
                        lo, hi, limit=200, epsrel=1e-13, epsabs=0.0)
        assert err <= 1e-12 * abs(val)
        total += val
    return 2.0**g * math.gamma(g + 1.0) * total


def _rotated(roots, phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.asarray(roots) @ np.array([[c, s], [-s, c]])


PLANAR_GROUPS = [
    ("a2", 1), ("a2", 0.3), ("b2", [1, 2]), ("b2", [0.25, 0.7]), ("i2(5)", 0.3),
    ("i2(6)", [1, 1]), ("i2(6)", [0.2, 1.7]), ("i2(8)", [0.5, 0]),
    (_rotated(root_system("b2").positive_roots, 0.37), [0.25, 0.7]),
    (_rotated([[1.0, 0.0]], 0.37), 0.8),                  # one mirror in the plane
    (_rotated([[1.0, 0.0], [0.0, 1.0]], 0.37), [0.3, 1.2]),  # Z2^2, rotated
]


@pytest.mark.parametrize("group,kappa", PLANAR_GROUPS)
def test_c_kappa_planar_beta_integral_matches_quadrature(group, kappa):
    """The dihedral Beta integral against the angular quadrature oracle."""
    rs = (root_system(group, multiplicity=kappa) if isinstance(group, str)
          else root_system(roots=group, multiplicity=kappa))
    assert rs.axis_kappas() is None
    assert c_kappa(rs) == pytest.approx(_angular_quadrature_c_kappa(rs), rel=1e-13, abs=0)


def test_c_kappa_general_group_routes_agree(a2_one):
    # d=2 angular route vs exact moment expansion (kappa integer)
    assert c_kappa(a2_one) == pytest.approx(_c_kappa_moments(a2_one), rel=1e-9)


def test_hermite_function_eval(z2_half_basis8):
    b = z2_half_basis8
    assert b.hermite_function((0,), [0.0]) == pytest.approx(math.sqrt(b.m_kappa))
    with pytest.raises(IndexOutOfTruncation):
        b.hermite_function((9,), [0.0])


def test_hermite_function_is_its_matrix_row():
    """h_n has one evaluator: hermite_function(n, x) is row n of
    hermite_function_matrix(x), bit for bit, with the shape of x less its
    last axis (a sum of monomial coefficients was 2.8e-12 off the recurrence
    here)."""
    b = build_basis(root_system("z2", multiplicity=Fraction(1, 2)), 24)
    xs = np.linspace(-6.0, 6.0, 97)[:, None]
    hm = b.hermite_function_matrix(xs)
    for i, n in enumerate(b.indices):
        row = b.hermite_function(n, xs)
        assert row.shape == (97,) and row.tobytes() == hm[i].tobytes()
    point = b.hermite_function((5,), [1.5])
    assert np.shape(point) == () and point == b.hermite_function_matrix([[1.5]])[5, 0]


def test_classical_hermite_function_oracle(z2_zero_basis8):
    """kappa = 0, n = 1: h_1(x) = sqrt(2/ sqrt(pi)) x e^{-x^2/2} ... compare
    against the standard normalized Hermite functions."""
    b = z2_zero_basis8
    xs = np.linspace(-3, 3, 13)
    for n in range(4):
        norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        Hn = np.polynomial.hermite.hermval(xs, [0.0] * n + [1.0])
        classical = norm * np.exp(-xs * xs / 2) * Hn
        ours = b.hermite_function((n,), xs[:, None])
        assert np.allclose(ours, classical, atol=1e-12)


def test_recurrence_evaluator_matches_polynomials(z2_half_basis8):
    b = z2_half_basis8
    xs = np.linspace(-4, 4, 17)
    hv = hermite_functions_1d(0.5, 8, xs)
    g = np.exp(-0.5 * xs * xs)
    for n in range(9):
        # h_n = 2^(-n/2) sqrt(m_kappa) e^(-x^2/2) H_n, H_n summed over its monomials
        H = sum(float(c) * xs ** e[0] for e, c in b.H[n].terms.items())
        direct = 2.0 ** (-0.5 * n) * math.sqrt(b.m_kappa) * g * H
        assert np.allclose(hv[n], direct, atol=1e-11)


def test_tensor_factorization(z2sq_ones):
    b = build_basis(z2sq_ones, 4)
    pts = np.array([[0.3, -1.2], [1.5, 0.4]])
    hm = b.hermite_function_matrix(pts)
    h1 = hermite_functions_1d(1.0, 4, pts[:, 0])
    h2 = hermite_functions_1d(1.0, 4, pts[:, 1])
    for i, n in enumerate(b.indices):
        assert np.allclose(hm[i], h1[n[0]] * h2[n[1]], atol=1e-12)


def test_json_round_trip(z2_half_basis8, tmp_path):
    b = z2_half_basis8
    payload = basis_to_dict(b)
    b2 = basis_from_dict(json.loads(json.dumps(payload)))
    assert b2.N == b.N and b2.size == b.size
    assert b2.c_kappa == pytest.approx(b.c_kappa)
    xs = np.linspace(-2, 2, 5)[:, None]
    for n in [(0,), (3,), (8,)]:
        assert np.allclose(b2.hermite_function(n, xs), b.hermite_function(n, xs))


def test_basis_representation_rule(a2_one):
    """One orthogonal system per basis, in the scalars of its algebra: an
    exact build keeps psi_n unnormalized over the rationals (every scalar
    downstream of T_j is a Fraction) with its exact norms; a float build and
    a loaded file keep the orthonormal phi_n and H_n, with norms 1, and a
    float build's file says 1.0 in its norms entry."""
    exact = build_basis(a2_one, 3)
    assert all(isinstance(c, Fraction) for p in exact.psi + exact.H_raw for c in p.terms.values())
    assert all(isinstance(v, Fraction) for v in exact.norms)
    assert basis_to_dict(exact)["norms"] == [float(v) for v in exact.norms]
    flt = build_basis(a2_one, 3, exact=False)
    payload = basis_to_dict(flt)
    assert payload["norms"] == [1.0] * flt.size
    for b in (flt, basis_from_dict(json.loads(json.dumps(payload)))):
        assert b.norms == [1.0] * b.size and b.H_raw is b.H
        assert all(isinstance(c, float) for p in b.psi for c in p.terms.values())
        for i in range(b.size):
            for j in range(i + 1):
                val = pairing(b.rs, b.psi[i], b.psi[j], exact=False)
                assert val == pytest.approx(float(i == j), abs=1e-12)


def _fraction_rows(G):
    """A block of integer rows (numerators, denominator) as rows of Fractions."""
    return [[Fraction(n, den) for n in row] for row, den in G]


def gram_blocks_by_fractions(alg, N):
    """The exact Gram blocks by rows over Fractions, R_a = R_{a - u_j} M_j^(k),
    with M_j^(k) read from the cached T_j(x^b): the oracle of the integer rows
    of _gram_blocks."""
    d = alg.dim
    zero = Fraction(0)
    grams = [[[Fraction(1)]]]
    prev = {(0,) * d: 0}
    for k in range(1, N + 1):
        block = _indices_of_degree(d, k)
        columns = [[[(prev[c], v) for c, v in alg._dunkl_monomial(j, b).terms.items()] for b in block]
                   for j in range(1, d + 1)]
        G = []
        for a in block:
            j = next(i for i, ai in enumerate(a) if ai)
            row = grams[-1][prev[a[:j] + (a[j] - 1,) + a[j + 1:]]]
            G.append([sum((row[c] * v for c, v in col), zero) for col in columns[j]])
        grams.append(G)
        prev = {b: i for i, b in enumerate(block)}
    return grams


def gram_schmidt_by_fractions(G):
    """Gram-Schmidt over Fractions on one Gram block: per i the coefficients
    of psi_i and its norm as the quadratic form v^T G v."""
    B = len(G)
    vecs = []
    for i in range(B):
        v = [Fraction(0)] * B
        v[i] = Fraction(1)
        for k in range(i):
            w, nw = vecs[k]
            proj = sum((w[a] * G[i][a] for a in range(B) if w[a]), Fraction(0))
            coef = proj / nw
            if coef:
                v = [va - coef * wa for va, wa in zip(v, w)]
        nv = Fraction(0)
        for a in range(B):
            for b in range(B):
                if v[a] and v[b]:
                    nv = nv + v[a] * G[a][b] * v[b]
        vecs.append((v, nv))
    return vecs


def exact_system_by_fractions(rs, N):
    """psi, norms and H_raw of an exact build over Fractions, from the oracle
    Gram blocks and Gram-Schmidt, each psi_n summed term by term."""
    alg = get_algebra(rs, exact=True)
    psi, norms = [], []
    for deg, G in enumerate(gram_blocks_by_fractions(alg, N)):
        block = _indices_of_degree(rs.dim, deg)
        for v, nv in gram_schmidt_by_fractions(G):
            poly = Polynomial.zero(rs.dim)
            for a, idx in enumerate(block):
                if v[a]:
                    poly = poly + alg.monomial(idx, v[a])
            psi.append(poly)
            norms.append(nv)
    H_raw = [alg.exp_laplacian(p, Fraction(-1, 4)).scale(Fraction(2 ** sum(n)))
             for p, n in zip(psi, enumerate_indices(rs.dim, N))]
    return psi, norms, H_raw


@pytest.mark.parametrize("group,kappa,N", [
    ("z2", Fraction(1, 2), 8), ("z2^2", [Fraction(1, 2), 2], 8), ("z2^3", [Fraction(1, 2), 1, 2], 6),
    ("a2", 1, 8), ("b2", [1, 2], 8), ("i2(3)", Fraction(1, 2), 8), ("i2(4)", [Fraction(1, 2), 2], 8),
    ("i2(6)", [1, 1], 8),
])
def test_integer_blocks_equal_fraction_route(group, kappa, N):
    """An exact build's integer Gram rows and Gram-Schmidt give the Gram
    blocks, psi_n (terms in the same order), norms and H_raw of the Fraction
    route, all as Fractions."""
    rs = root_system(group, multiplicity=kappa)
    basis = build_basis(rs, N)
    assert [_fraction_rows(G) for G in basis._cache["gram"]] == gram_blocks_by_fractions(
        get_algebra(rs, exact=True), N)
    psi, norms, H_raw = exact_system_by_fractions(rs, N)
    assert [list(p.terms.items()) for p in basis.psi] == [list(p.terms.items()) for p in psi]
    # H_raw comes by (-|e|, e), the Fraction route in the order of its sums
    assert basis.H_raw == H_raw
    assert all(list(h.terms) == sorted(h.terms, key=lambda e: (-sum(e), e)) for h in basis.H_raw)
    assert all(type(c) is Fraction for p in basis.psi + basis.H_raw for c in p.terms.values())
    assert basis.norms == norms
    assert all(type(v) is Fraction for v in basis.norms)


def eigen_residuals_by_polynomials(basis):
    """check_eigen's (max_residual, exact_failures) from the polynomial
    residuals conjugated_oscillator(H_raw_n) - lambda_n H_raw_n over Fractions:
    the oracle of the exact block residuals."""
    alg = get_algebra(basis.rs, exact=True)
    worst, failures = 0.0, 0
    for H, n in zip(basis.H_raw, basis.indices):
        lam = Fraction(2 * sum(n) + basis.rs.dim) + 2 * gamma_exact(basis.rs)
        resid = alg.conjugated_oscillator(H) - H.scale(lam)
        worst = max([worst, *(abs(float(c)) for c in resid.terms.values())])
        failures += not resid.is_zero()
    return worst, failures


@pytest.mark.parametrize("group,kappa,N", [
    ("z2", Fraction(1, 2), 24), ("z2^2", [Fraction(1, 2), 2], 6), ("z2^3", [Fraction(1, 2), 1, 2], 6),
    ("a2", 1, 8), ("b2", [1, 2], 8), ("i2(3)", Fraction(1, 2), 8), ("i2(4)", [Fraction(1, 2), 2], 8),
    ("i2(6)", [1, 1], 8),
])
def test_exact_blocks_equal_polynomial_routes(group, kappa, N):
    """An exact build's H_raw_n, from the integer Laplacian blocks, is
    2^|n| exp_laplacian(psi_n, -1/4) term for term, all Fractions; and the
    exact check_eigen, from integer oscillator blocks, gives the
    exact_failures and max_residual of the polynomial residuals, also on a
    copy whose H_raw has one coefficient moved (the top-degree term of the
    last H_n, which enters the residual at its own degree and, through the
    Laplacian, two degrees below)."""
    rs = root_system(group, multiplicity=kappa)
    basis = build_basis(rs, N)
    alg = get_algebra(rs, exact=True)
    for p, n, h in zip(basis.psi, basis.indices, basis.H_raw):
        want = alg.exp_laplacian(p, Fraction(-1, 4)).scale(Fraction(2 ** sum(n)))
        assert h.terms == want.terms, n
        assert all(type(c) is type(want.terms[e]) is Fraction for e, c in h.terms.items())
    last = dict(basis.H_raw[-1].terms)
    e = next(iter(last))
    last[e] += Fraction(1, 7)
    moved = replace(basis, H_raw=basis.H_raw[:-1] + [Polynomial(rs.dim, last)])
    for b, failures in ((basis, 0), (moved, 1)):
        got = check_eigen(b).residuals
        worst, want_failures = eigen_residuals_by_polynomials(b)
        assert want_failures == failures
        assert (got["exact_failures"], got["max_residual"].hex()) == (failures, worst.hex())


@pytest.mark.parametrize("group,kappa,N", [
    ("a2", 1, 6), ("b2", [1, 2], 6), ("i2(6)", [1, 1], 6), ("z2^2", [1, 1], 6),
    ("z2", Fraction(1, 2), 12),
])
def test_gram_blocks_equal_t_power_chains(group, kappa, N):
    """The exact Gram blocks by rows, R_a = R_{a - u_j} M_j, equal those of
    the T-power chains of _gram_block entry for entry, and are the ones an
    exact build keeps.  Each row is read back as Fractions from its integer
    numerators over one denominator."""
    rs = root_system(group, multiplicity=kappa)
    alg = get_algebra(rs, exact=True)
    rows = _gram_blocks(*_dunkl_blocks(alg, N))
    grams = [_fraction_rows(G) for G in rows]
    assert len(grams) == N + 1
    for k, G in enumerate(grams):
        assert G == _gram_block(alg, _indices_of_degree(rs.dim, k)), k
        assert all(type(v) is Fraction for row in G for v in row)
    assert build_basis(rs, N)._cache["gram"] == rows


def test_checksum_guard(z2_half_basis8):
    payload = basis_to_dict(z2_half_basis8)
    payload["norms"][0] = 123.0
    with pytest.raises(BasisChecksum):
        basis_from_dict(payload)


def test_float_mode_basis_i2_5():
    """I2(5) has no quadratic-surd coordinates; the float path must carry it."""
    rs = root_system("i2(5)", multiplicity=1.0)
    assert not rs.exact_capable
    b = build_basis(rs, 3)
    assert not b.exact
    alg = get_algebra(rs, exact=False)
    lam = 2 * 2 + 2 * b.gamma + 2  # |n| = 2 shell
    for i, n in enumerate(b.indices):
        if sum(n) != 2:
            continue
        resid = alg.conjugated_oscillator(b.H[i]) - b.H[i].scale(2 * sum(n) + 2 * b.gamma + 2)
        worst = max((abs(c) for c in resid.terms.values()), default=0.0)
        assert worst < 1e-10


@pytest.mark.parametrize("group,kappa", [
    ("z2", Fraction(1, 2)),
    ("z2^2", [1, 1]),
    ("z2^3", [Fraction(1, 2), 1, 2]),
    ("a2", 1),
    ("b2", [1, 2]),
    ("i2(3)", Fraction(1, 2)),
    ("i2(4)", [Fraction(1, 2), 2]),
    ("i2(6)", [1, 1]),
])
def test_float_basis_matches_exact(group, kappa):
    """Every catalogue group with exact coordinates builds in float arithmetic
    too, and its H_n agree with the exact ones to 1e-12 relative."""
    rs = root_system(group, multiplicity=kappa)
    exact = build_basis(rs, 8, exact=True)
    flt = build_basis(rs, 8, exact=False)
    assert exact.indices == flt.indices
    for he, hf in zip(exact.H, flt.H):
        scale = max(abs(c) for c in he.terms.values())
        diff = max(abs(he.terms.get(e, 0.0) - hf.terms.get(e, 0.0)) for e in set(he.terms) | set(hf.terms))
        assert diff <= 1e-12 * scale


@pytest.mark.parametrize("group,kappa,N", [
    ("z2", Fraction(1, 2), 8), ("z2^2", [1, 1], 5), ("a2", 1, 6), ("i2(6)", [1, Fraction(1, 3)], 5),
])
def test_exact_build_lists_float_H_by_descending_degree(group, kappa, N):
    basis = build_basis(root_system(group, multiplicity=kappa), N, exact=True)
    for h in basis.H:
        assert list(h.terms) == sorted(h.terms, key=lambda e: (-sum(e), e))


def test_exact_h_bits_do_not_depend_on_the_dunkl_fill():
    """a2 h_n are bit-identical whether T_j(x^e) comes from the commutator or
    from the divided differences, whose terms come in another order."""
    N = 8
    commuted = build_basis(root_system("a2", multiplicity=1), N, exact=True)
    rs = root_system("a2", multiplicity=1)
    alg = get_algebra(rs, exact=True)
    reordered = 0
    for j in (1, 2):
        for e in (e for e in np.ndindex(N + 1, N + 1) if sum(e) <= N):
            terms = dict(Polynomial.monomial(e, Surd.of(1)).partial_derivative(j).terms)
            for i, w in alg._weights[j - 1]:
                _add_scaled(terms, alg._divided_monomial(i, e), w)
            alg._dunkl_mono[j - 1][e] = Polynomial(2, {c: _rational(v, j, e) for c, v in terms.items()})
            want = get_algebra(commuted.rs, exact=True)._dunkl_monomial(j, e)
            assert alg._dunkl_mono[j - 1][e] == want
            reordered += list(alg._dunkl_mono[j - 1][e].terms) != list(want.terms)
    divided = build_basis(rs, N, exact=True)
    assert reordered
    assert [list(p.terms.items()) for p in commuted.H_raw] == [list(q.terms.items()) for q in divided.H_raw]
    x = np.random.default_rng(7).uniform(-1.5, 1.5, (60, 2))
    assert commuted.hermite_function_matrix(x).tobytes() == divided.hermite_function_matrix(x).tobytes()
