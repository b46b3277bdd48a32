import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunklriesz.hermite import basis_from_dict, basis_to_dict, build_basis
from dunklriesz.kernels import heat_kernel
from dunklriesz.polyalg import DunklAlgebra, Polynomial, get_algebra
from dunklriesz.qfield import Surd
from dunklriesz.reflection import root_system, weight
from dunklriesz.spectral import (
    AdjointMismatch,
    OperatorMatrix,
    OrderTooSmall,
    SpectralVector,
    _pairing_blocks,
    _pairings,
    analyze,
    delta_matrix,
    exact_adjoint_residual,
    gauss_generalized_hermite,
    heat_apply,
    inv_sqrt_apply,
    operator_norm,
    quadrature_rule,
    riesz_matrix,
    synthesize,
)
from dunklriesz.verify import VerifyConfig, check_eigen


def test_gauss_kappa0_matches_classical_tables():
    nodes, wts = gauss_generalized_hermite(0.0, 12)
    on, ow = np.polynomial.hermite.hermgauss(12)
    order = np.argsort(nodes)
    assert np.allclose(nodes[order], np.sort(on), atol=1e-12)
    assert np.allclose(wts[order], ow[np.argsort(on)], atol=1e-13)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.7])
def test_gauss_moments(kappa):
    nodes, wts = gauss_generalized_hermite(kappa, 24)
    assert wts.sum() == pytest.approx(math.gamma(kappa + 0.5), rel=1e-13)
    assert (wts * nodes**2).sum() == pytest.approx(math.gamma(kappa + 1.5), rel=1e-13)
    assert (wts * nodes**4).sum() == pytest.approx(math.gamma(kappa + 2.5), rel=1e-12)


def test_gauss_recurrence_vs_exact_moment_construction():
    """Derive the first recurrence coefficients from exact Hankel moments
    (Fraction arithmetic on Gamma ratios) and compare with the closed form."""
    kappa = Fraction(1, 3)
    # moments m_{2k} = Gamma(k + kappa + 1/2) / Gamma(kappa + 1/2) (normalized)
    moms = [Fraction(1)]
    for k in range(1, 8):
        moms.append(moms[-1] * (k - 1 + kappa + Fraction(1, 2)))
    # orthogonalize 1, x, x^2, ... by hand: b_n^2 = h_n / h_{n-1}
    # with h_n the squared norms from the moment matrix (even weight)
    import numpy.linalg as la

    n = 4
    H = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            H[i, j] = float(moms[(i + j) // 2]) if (i + j) % 2 == 0 else 0.0
    L = la.cholesky(H)
    hs = np.diag(L) ** 2
    b_sq = hs[1:] / hs[:-1]
    closed = [(k + 2 * float(kappa) * (k % 2)) / 2.0 for k in range(1, n + 1)]
    assert np.allclose(b_sq, closed, rtol=1e-10)


def test_gauss_order_guard():
    with pytest.raises(OrderTooSmall):
        gauss_generalized_hermite(0.5, 0)


def test_rule_reproduces_c_kappa(z2_half, z2_half_basis8):
    rule = quadrature_rule(z2_half, 48)
    est = rule.integrate(np.exp(np.sum(rule.nodes**2, axis=-1) / 2.0))
    assert est == pytest.approx(z2_half_basis8.c_kappa, rel=1e-8)


def test_rule_general_group_weight_folded(a2_one):
    # integrates w_kappa e^{-|x|^2} (polynomial weight at kappa = 1): the
    # total mass matches the exact moment expansion of c at variance 1/2
    rule = quadrature_rule(a2_one, 40)
    got = rule.integrate(np.ones(rule.size))
    # int w e^{-|x|^2} dx = 2^{-gamma - d/2} * int w e^{-|x|^2/2} scaled:
    # w homogeneous of degree 2 gamma = 6 => substitute x -> x/sqrt(2)
    from dunklriesz.hermite import c_kappa

    want = c_kappa(a2_one) * 2.0 ** -(3 + 1) * 2.0**0  # (1/sqrt2)^(2g+d) = 2^-(g+d/2)
    assert got == pytest.approx(want, rel=1e-10)


def test_analyze_orthonormality(z2_half_basis8):
    rule = quadrature_rule(z2_half_basis8.rs, 2 * z2_half_basis8.N + 8)
    for m in [(0,), (3,), (8,)]:
        v = analyze(z2_half_basis8, rule, lambda X, m=m: z2_half_basis8.hermite_function(m, X))
        expected = np.zeros(z2_half_basis8.size)
        expected[z2_half_basis8.position(m)] = 1.0
        assert np.allclose(v.values, expected, atol=1e-9)


def test_analyze_zero_and_linearity(z2_half_basis8):
    b = z2_half_basis8
    rule = quadrature_rule(b.rs, 2 * b.N + 8)
    z = analyze(b, rule, lambda X: np.zeros(X.shape[0]))
    assert np.allclose(z.values, 0.0)
    f = lambda X: b.hermite_function((0,), X) + 2.0 * b.hermite_function((2,), X)
    v = analyze(b, rule, f)
    expected = np.zeros(b.size)
    expected[0], expected[b.position((2,))] = 1.0, 2.0
    assert np.allclose(v.values, expected, atol=1e-9)


def test_synthesize_unit_vector(z2_half_basis8):
    b = z2_half_basis8
    v = SpectralVector(b, np.eye(b.size)[4])
    xs = np.linspace(-2, 2, 7)[:, None]
    assert np.allclose(synthesize(b, v, xs), b.hermite_function(b.indices[4], xs))


def test_round_trip(z2_half_basis8):
    b = z2_half_basis8
    rule = quadrature_rule(b.rs, 2 * b.N + 8)
    rng = np.random.default_rng(0)
    v = SpectralVector(b, rng.normal(size=b.size))
    w = analyze(b, rule, lambda X: synthesize(b, v, X))
    assert np.allclose(w.values, v.values, atol=1e-8)


def test_l2_orthonormality_2d(z2sq_ones):
    b = build_basis(z2sq_ones, 4)
    rule = quadrature_rule(b.rs, 2 * b.N + 8)
    hm = b.hermite_function_matrix(rule.nodes)
    boost = np.exp(np.sum(rule.nodes**2, axis=-1) / 2.0)
    G = (hm * boost) @ ((hm * boost) * rule.weights).T
    assert np.max(np.abs(G - np.eye(b.size))) < 1e-8


def test_heat_apply_semigroup(z2_half_basis8):
    b = z2_half_basis8
    rng = np.random.default_rng(1)
    v = SpectralVector(b, rng.normal(size=b.size))
    a = heat_apply(b, 0.7, heat_apply(b, 0.3, v))
    c = heat_apply(b, 1.0, v)
    assert np.allclose(a.values, c.values, rtol=1e-14)
    assert np.allclose(heat_apply(b, 0.0, v).values, v.values)


def test_heat_apply_ground_state(z2_half_basis8):
    v = SpectralVector(z2_half_basis8, np.eye(z2_half_basis8.size)[0])
    out = heat_apply(z2_half_basis8, 1.0, v)
    assert out.values[0] == pytest.approx(math.exp(-2.0), rel=1e-14)  # 2 gamma + d = 2


@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
@settings(max_examples=25, deadline=None)
def test_heat_apply_semigroup_property(s, t):
    rs = root_system("z2", multiplicity=Fraction(1, 2))
    b = build_basis(rs, 6)
    v = SpectralVector(b, np.arange(1.0, b.size + 1.0))
    a = heat_apply(b, s, heat_apply(b, t, v)).values
    c = heat_apply(b, s + t, v).values
    assert np.allclose(a, c, rtol=1e-12)


def test_inv_sqrt_examples(z2_half_basis8, z2_zero_basis8):
    v = SpectralVector(z2_half_basis8, np.eye(z2_half_basis8.size)[0])
    assert inv_sqrt_apply(z2_half_basis8, v).values[0] == pytest.approx(2.0**-0.5)
    for n in range(5):
        v0 = SpectralVector(z2_zero_basis8, np.eye(z2_zero_basis8.size)[n])
        assert inv_sqrt_apply(z2_zero_basis8, v0).values[n] == pytest.approx(
            (2 * n + 1) ** -0.5
        )
    lam = z2_half_basis8.eigenvalues()
    w = inv_sqrt_apply(z2_half_basis8, inv_sqrt_apply(z2_half_basis8, v))
    assert np.allclose(lam * w.values, v.values)


def test_delta_entries_classical(z2_zero_basis8):
    D = delta_matrix(z2_zero_basis8, 1, "lower")
    for n in range(1, 9):
        assert D.values[n - 1, n] == pytest.approx(math.sqrt(2 * n), abs=1e-12)
    assert np.count_nonzero(np.abs(D.values) > 1e-12) == 8  # strictly sub-diagonal


def test_delta_on_ground_state(z2_half_basis8):
    D = delta_matrix(z2_half_basis8, 1, "lower")
    assert np.allclose(D.values[:, 0], 0.0)
    assert D.values[0, 1] == pytest.approx(2.0, abs=1e-13)  # sqrt(2(1+2k)) at k=1/2


def test_delta_raise_leaks_top_shell(z2_half_basis8):
    Dr = delta_matrix(z2_half_basis8, 1, "raise")
    assert Dr.leaky_top_shell


def test_adjointness(z2_half_basis8):
    D = delta_matrix(z2_half_basis8, 1, "lower")
    Dr = delta_matrix(z2_half_basis8, 1, "raise")
    rows = [i for i, n in enumerate(z2_half_basis8.indices) if sum(n) <= z2_half_basis8.N - 1]
    assert np.max(np.abs(D.values - Dr.values.T)[rows, :]) < 1e-13
    assert exact_adjoint_residual(z2_half_basis8, 1) > 0


def test_exact_adjoint_mismatch_raises(z2_half):
    """A doubled H_raw_0 doubles S_raise[(1,), (0,)] and no lowering entry."""
    b = build_basis(z2_half, 3)
    b.H_raw[0] = b.H_raw[0].scale(2)
    with pytest.raises(AdjointMismatch) as info:
        exact_adjoint_residual(b, 1)
    err = info.value
    assert (err.m, err.n) == ((0,), (1,))
    assert err.S_raise == err.S_low * Surd.of(2)


# sha256 of delta_matrix(b, j, v).values.tobytes() for (j, v) = (1, lower),
# (1, raise), (2, lower), (2, raise), and check_eigen's max_residual, recorded
# while the basis still kept a float copy of each exact system; both are
# sums of Python floats, with no BLAS.
PINNED_DELTA = {
    ("a2", "built"): (
        "7357a6bd68a4984af258061713b0d546a37b3ad7a35bbcf2b9b783f6a89aa295",
        "d2fc16d14a450aabee029a2cd7206495e4397e0cd2a3d90dfcac44ad76aa41eb",
        "c6509d92443aaf5ad1e9d5898366b3ad619a90401b7dff6fec479e566ac09f47",
        "3f5c2d76725fda5be486a4398249491f7bec0f66455428fcb68ca680a4f0af13",
        "0x0.0p+0"),
    ("a2", "loaded"): (
        "cebfe339a17168baa536c9bb8b66de5fec40bd06bc19d63f981e1bafda01723b",
        "624072a4d0a136afdbb5a2238f2e4bcb32bae6dcb04a1ba2f4f718fd255fdae9",
        "ece3ad4d90461cc9fc3920a2b60a6bdacba4186cd510608efd343e174c920989",
        "3262fb70d72f79a30240f81862a13d75ff1480c9893fdc5e00b29ef5c88cebd5",
        "0x1.0b943bd6ba741p-47"),
    ("b2", "built"): (
        "1ae90afa0342a92554a9fda9da06768bdf8ecb67f4a22dc778576c3482e65b97",
        "f344b21b9768a5445f39a59f5d3899a1e74faae2eab96f43e146f83d2a202aaa",
        "5b71915a2ed112ab81ee6859f0960db72384c3f0bb957f0fa4691832103fd513",
        "c6af380b0abb40a9a49863fdeca418020260ca43530e5db9be0fc136548ae509",
        "0x0.0p+0"),
    ("b2", "loaded"): (
        "2c07c10b39ee9b767b984e7d85a7d56fdef7cd22289a213347e4ea83d5d2571e",
        "30de0fd4d290cb0adf2f6e5d868e587914f3b2a722549d4d91a4d07727b2b3c2",
        "e6dfb73d8e70ba13fc8d5a67b3b7602b82f70e4834690dd88d1fd901f84cdf06",
        "67643f215c7857124f84a3476333618332918f8591967fceb472b4fe764b51c5",
        "0x1.4848ace20efc6p-47"),
    ("i2(5)", "built"): (
        "70a908d8ec79aa8b2fbd1aee360704add00461571ed5e20ced7e7659b947a79a",
        "3b4e2509bf9d4060e419fdf1eed71f54533555264d1d06647a092e27d21991de",
        "458d602f622966a330580323b083a0beffcb77915df2f9c7609096f7fd331231",
        "deeda957001eca662cae5c031fa25072c1cf525b4ff80feb1a9f8426dc8e6d03",
        "0x1.43ceadb19d99fp-47"),
    ("i2(5)", "loaded"): (
        "70a908d8ec79aa8b2fbd1aee360704add00461571ed5e20ced7e7659b947a79a",
        "3b4e2509bf9d4060e419fdf1eed71f54533555264d1d06647a092e27d21991de",
        "458d602f622966a330580323b083a0beffcb77915df2f9c7609096f7fd331231",
        "deeda957001eca662cae5c031fa25072c1cf525b4ff80feb1a9f8426dc8e6d03",
        "0x1.43ceadb19d99fp-47"),
    ("i2(6)", "built"): (
        "b07746348e5997d07176967b98a6835960b5ea4329efcf9203b917f83eeede59",
        "34d6aae70641696478c6ea70cd47e135fece9722cefbc925090a6739ec91881f",
        "265e9a31f6d6dfa43121b1ea8a4e73b21bd3792b823dd1133448951ab75041a0",
        "0eac0d0798f994aee780f146bcee30802ff525781fc7b2e0af2e405f3be79f41",
        "0x0.0p+0"),
    ("i2(6)", "loaded"): (
        "75410378f7427c673a6d8588f889b03cc7d469e03acd2e8e1bd1ad888bc3eebf",
        "25c2304c8cdd4463f577bddf15623d14b78b72bc366e3a9d790cc0a23b81dc6c",
        "5a2cda1b290806b1c1a52630122cf7d44d86c7c6c5696b313dee3c07cab64e5d",
        "f073b9500e43e3cea90dfcd7f85f172e6dafe2b55ef6a7693402800ee3280088",
        "0x1.eb796aa634829p-47"),
}


@pytest.mark.parametrize("group,kappa", [("a2", 1), ("b2", [1, 2]), ("i2(6)", [1, 1]), ("i2(5)", 1)])
def test_delta_matrix_and_eigen_bits_pinned(group, kappa):
    """delta_j, delta_j^* and the eigen residual keep their bits: exact a2, b2
    and i2(6) and float i2(5) at N = 6, as built and as reloaded from the
    basis file."""
    built = build_basis(root_system(group, multiplicity=kappa), 6)
    loaded = basis_from_dict(json.loads(json.dumps(basis_to_dict(built))))
    for source, b in (("built", built), ("loaded", loaded)):
        *digests, residual = PINNED_DELTA[group, source]
        got = [hashlib.sha256(delta_matrix(b, j, v).values.tobytes()).hexdigest()
               for j in (1, 2) for v in ("lower", "raise")]
        assert got == digests, source
        eigen = check_eigen(b, VerifyConfig())
        assert eigen.status == "pass"
        assert eigen.residuals["max_residual"].hex() == residual, source


def _pairings_in_full(basis, j, variant):
    """The pairings [psi_m, e^{Lap/4} P_n] with Q = e^{Lap/4} P_n built in
    full, P_n = T_j H_n or 2 x_j H_n - T_j H_n."""
    alg = get_algebra(basis.rs, basis.exact)
    shells = {}
    for i, n in enumerate(basis.indices):
        shells.setdefault(sum(n), []).append(i)
    for col, n in enumerate(basis.indices):
        target = sum(n) - 1 if variant == "lower" else sum(n) + 1
        if target not in shells:
            continue
        H = basis.H_raw[col]
        P = alg.dunkl(j, H)
        if variant == "raise":
            P = alg.variable(j) * H * alg.scalar(2) - P
        Q = alg.exp_laplacian(P, Fraction(1, 4))
        cache = {(0,) * basis.rs.dim: Q}
        for row in shells[target]:
            yield row, col, alg.apply_poly_operator(basis.psi[row], Q, cache).constant_term()


def _pairings_by_chains(basis, j, variant):
    """The top-shell pairings by polynomials: Q = T_j H_top or 2 x_j H_top,
    paired with each psi_m by T-power chains on Q."""
    alg = get_algebra(basis.rs, basis.exact)
    shells = {}
    for i, n in enumerate(basis.indices):
        shells.setdefault(sum(n), []).append(i)
    for col, n in enumerate(basis.indices):
        target = sum(n) - 1 if variant == "lower" else sum(n) + 1
        if target not in shells:
            continue
        H_top = Polynomial(basis.rs.dim, {e: c for e, c in basis.H_raw[col].terms.items() if sum(e) == sum(n)})
        Q = alg.dunkl(j, H_top) if variant == "lower" else alg.variable(j) * H_top * alg.scalar(2)
        cache = {(0,) * basis.rs.dim: Q}
        for row in shells[target]:
            yield row, col, alg.apply_poly_operator(basis.psi[row], Q, cache).constant_term()


@pytest.mark.parametrize("group,kappa,N", [
    ("a2", 1, 6), ("b2", [1, 2], 6), ("i2(6)", [1, 1], 6), ("z2^2", [1, 1], 6),
    ("z2", Fraction(1, 2), 12),
])
def test_block_pairings_equal_polynomial_pairings(group, kappa, N):
    """On exact bases the block products W_{k-1} M_j H_k and W_{k+1} 2X_j H_k
    give the pairings of the polynomial route, as field elements and in its
    order, for every axis and both variants."""
    b = build_basis(root_system(group, multiplicity=kappa), N)
    assert b.exact
    for j in range(1, b.rs.dim + 1):
        for variant in ("lower", "raise"):
            got = list(_pairings(b, j, variant))
            assert got == list(_pairings_by_chains(b, j, variant)), (j, variant)
            assert all(type(S) in (Fraction, int) for *_, S in got)


def _pairing_blocks_by_fractions(basis):
    """Per degree k: (shell positions, block, W_k, H_k) over Fractions, with
    W_k = Psi_k^T G_k summed from psi_m and the Gram rows read as Fractions."""
    zero = Fraction(0)
    shells = {}
    for i, n in enumerate(basis.indices):
        shells.setdefault(sum(n), []).append(i)
    blocks = []
    for k, rows in enumerate(basis._cache["gram"]):
        G = [[Fraction(n, den) for n in row] for row, den in rows]
        shell = shells[k]
        block = [basis.indices[i] for i in shell]
        W = []
        for m in shell:
            psi = [basis.psi[m].terms.get(a, zero) for a in block]
            W.append([sum((pa * G[a][c] for a, pa in enumerate(psi) if pa), zero) for c in range(len(block))])
        H = [[basis.H_raw[n].terms.get(b, zero) for b in block] for n in shell]
        blocks.append((shell, block, W, H))
    return blocks


def _block_pairings_by_fractions(basis, j, variant):
    """The block products W_{k-1} M_j H_k and W_{k+1} 2X_j H_k over
    Fractions, column by column: the oracle of the integer block products."""
    alg = get_algebra(basis.rs, True)
    zero = Fraction(0)
    blocks = _pairing_blocks_by_fractions(basis)
    for k, (shell, block, _, H) in enumerate(blocks):
        target = k - 1 if variant == "lower" else k + 1
        if not 0 <= target < len(blocks):
            continue
        rows, tblock, W, _ = blocks[target]
        pos = {c: i for i, c in enumerate(tblock)}
        if variant == "lower":
            columns = [[(pos[c], v) for c, v in alg._dunkl_monomial(j, b).terms.items()] for b in block]
        else:
            columns = [[(pos[b[:j - 1] + (b[j - 1] + 1,) + b[j:]], 2)] for b in block]
        for col, h in zip(shell, H):
            Q = [zero] * len(tblock)
            for column, hb in zip(columns, h):
                if hb:
                    for c, v in column:
                        Q[c] += v * hb
            for row, w in zip(rows, W):
                yield row, col, sum((wc * qc for wc, qc in zip(w, Q) if qc), zero) or 0


@pytest.mark.parametrize("group,kappa,N", [
    ("z2", Fraction(1, 2), 8), ("z2^2", [Fraction(1, 2), 2], 8), ("z2^3", [Fraction(1, 2), 1, 2], 6),
    ("a2", 1, 8), ("b2", [1, 2], 8), ("i2(3)", Fraction(1, 2), 8), ("i2(4)", [Fraction(1, 2), 2], 8),
    ("i2(6)", [1, 1], 8),
])
def test_integer_pairings_equal_fraction_pairings(group, kappa, N):
    """The integer rows of W_k equal Psi_k^T G_k over Fractions, and the
    integer block products give the pairings of the Fraction products, with
    the same types (Fraction, or the int 0 of a zero pairing), for every axis
    and both variants."""
    b = build_basis(root_system(group, multiplicity=kappa), N)
    want_blocks = _pairing_blocks_by_fractions(b)
    for (_, _, W, _), (_, _, want, _) in zip(_pairing_blocks(b), want_blocks, strict=True):
        assert [[Fraction(n, den) for n in row] for row, den in W] == want
    for j in range(1, b.rs.dim + 1):
        for variant in ("lower", "raise"):
            got = list(_pairings(b, j, variant))
            want = list(_block_pairings_by_fractions(b, j, variant))
            assert got == want, (j, variant)
            assert [type(S) for *_, S in got] == [type(S) for *_, S in want], (j, variant)


@pytest.mark.parametrize("group,kappa,source", [
    ("a2", 1, "built"), ("b2", [1, 2], "built"), ("i2(6)", [1, 1], "built"),
    ("i2(5)", 1, "built"), ("a2", 1, "loaded"),
])
def test_top_shell_pairings_equal_full_pairings(group, kappa, source):
    """The pairings read from the degree-|m| shell alone equal those of the
    full e^{Lap/4} P_n, entry for entry, for both axes and both variants."""
    b = build_basis(root_system(group, multiplicity=kappa), 6)
    if source == "loaded":
        b = basis_from_dict(json.loads(json.dumps(basis_to_dict(b))))
    for j in (1, 2):
        for variant in ("lower", "raise"):
            got = list(_pairings(b, j, variant))
            want = list(_pairings_in_full(b, j, variant))
            assert got == want, (j, variant)
            assert [type(S) for *_, S in got] == [type(S) for *_, S in want]


def test_delta_matrix_applies_no_exp_laplacian(a2_one, monkeypatch):
    b = build_basis(a2_one, 6)
    calls = []
    exp_laplacian = DunklAlgebra.exp_laplacian
    monkeypatch.setattr(DunklAlgebra, "exp_laplacian",
                        lambda self, *a: calls.append(a) or exp_laplacian(self, *a))
    delta_matrix(b, 1, "lower")
    delta_matrix(b, 1, "raise")
    assert calls == []


def test_oscillator_reconstruction(z2_half_basis8):
    b = z2_half_basis8
    D = delta_matrix(b, 1, "lower").values
    Dr = delta_matrix(b, 1, "raise").values
    L = 0.5 * (D @ Dr + Dr @ D)
    lam = b.eigenvalues()
    safe = [i for i, n in enumerate(b.indices) if sum(n) <= b.N - 1]
    resid = np.max(np.abs((L - np.diag(lam))[np.ix_(safe, safe)]))
    assert resid < 1e-12


def test_riesz_action_examples(z2_half_basis8, z2_zero_basis8):
    R = riesz_matrix(z2_half_basis8, 1)
    assert np.allclose(R.values[:, 0], 0.0)       # R h_0 = 0
    assert R.values[0, 1] == pytest.approx(1.0, abs=1e-12)  # R h_1 = h_0 at k=1/2
    R0 = riesz_matrix(z2_zero_basis8, 1)
    for n in range(1, 9):
        assert R0.values[n - 1, n] == pytest.approx(
            math.sqrt(2 * n / (2 * n + 1)), abs=1e-12
        )


def test_operator_norm_edge_cases(z2_half_basis8):
    Z = OperatorMatrix(z2_half_basis8, np.zeros((4, 4)))
    assert operator_norm(Z) == 0.0
    I = OperatorMatrix(z2_half_basis8, np.eye(5))
    assert operator_norm(I) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_vs_svd(z2_half_basis8):
    rng = np.random.default_rng(4)
    A = rng.normal(size=(12, 12))
    assert operator_norm(OperatorMatrix(z2_half_basis8, A)) == pytest.approx(
        np.linalg.svd(A, compute_uv=False)[0], rel=1e-8
    )


@pytest.mark.parametrize("mult", [0, Fraction(1, 2), 1, 2])
def test_riesz_norm_bound_d1(mult):
    b = build_basis(root_system("z2", multiplicity=mult), 10)
    assert operator_norm(riesz_matrix(b, 1)) <= math.sqrt(2) + 1e-8


def test_riesz_norm_bound_2d(z2sq_ones, a2_one):
    for rs, N in ((z2sq_ones, 6), (a2_one, 5)):
        b = build_basis(rs, N)
        for j in (1, 2):
            assert operator_norm(riesz_matrix(b, j)) <= math.sqrt(2) + 1e-8


def test_pair_norm_inequality(z2_half_basis8):
    b = z2_half_basis8
    R = riesz_matrix(b, 1).restrict_columns(b.N - 1)
    Rs = riesz_matrix(b, 1, adjoint=True).restrict_columns(b.N - 1)
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(size=R.shape[1])
        v /= np.linalg.norm(v)
        assert np.linalg.norm(R @ v) ** 2 + np.linalg.norm(Rs @ v) ** 2 <= 2 + 1e-8


def test_heat_matrix_matches_kernel_integration(z2_half_basis8):
    """e^{-tL} through coefficients vs pointwise integration against k_t."""
    b = z2_half_basis8
    rule = quadrature_rule(b.rs, 40)
    t = 0.6
    v = SpectralVector(b, np.eye(b.size)[2] + 0.5 * np.eye(b.size)[5])
    f = lambda X: synthesize(b, v, X)
    lhs = synthesize(b, heat_apply(b, t, v), np.array([[0.4], [1.1]]))
    for i, x in enumerate([0.4, 1.1]):
        kt = heat_kernel(b, t, np.array([x]), rule.nodes[0])  # warm the cache
        kvals = np.array([heat_kernel(b, t, np.array([x]), yq) for yq in rule.nodes])
        boost = np.exp(np.sum(rule.nodes**2, axis=-1))
        rhs = float(np.sum(rule.weights * kvals * f(rule.nodes) * boost))
        assert lhs[i] == pytest.approx(rhs, rel=1e-4)


def test_matrix_csv_export(z2_half_basis8, tmp_path):
    D = delta_matrix(z2_half_basis8, 1, "lower")
    path = tmp_path / "delta.csv"
    D.to_csv(str(path), tol=1e-14)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "row,col,value"
    assert len(rows) == 1 + np.count_nonzero(np.abs(D.values) > 1e-14)


def test_spectral_vector_json(z2_half_basis8):
    v = SpectralVector(z2_half_basis8, np.arange(float(z2_half_basis8.size)))
    d = v.as_dict()
    w = SpectralVector.from_dict(z2_half_basis8, d)
    assert np.allclose(v.values, w.values)
