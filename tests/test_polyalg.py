import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunklriesz import polyalg
from dunklriesz.hermite import build_basis
from dunklriesz.polyalg import (
    DimensionMismatch,
    DunklAlgebra,
    IrrationalDunklCoefficient,
    NonzeroRemainder,
    Polynomial,
    _add_scaled,
    _invert,
    _is_zero,
    _unit,
    divide_linear,
    get_algebra,
)
from dunklriesz.qfield import Surd, SQRT2
from dunklriesz.reflection import root_system
from dunklriesz.verify import check_eigen


def P(d, terms):
    return Polynomial(d, {e: Surd.of(c) for e, c in terms.items()})


def _one_like(c):
    if isinstance(c, Surd):
        return Surd.of(1)
    return Fraction(1) if isinstance(c, Fraction) else 1.0


def compose_linear(p, rows):
    """p(M x): substitute x_i -> sum_j M[i][j] x_j, each monomial as the
    product sequence x_1^e_1 ... x_d^e_d; for a reflection this is p o M."""
    lin = [Polynomial(p.dim, {_unit(p.dim, j): row[j] for j in range(p.dim) if not _is_zero(row[j])})
           for row in rows]
    out = Polynomial.zero(p.dim)
    for e, c in p.terms.items():
        m = Polynomial.constant(p.dim, _one_like(c))
        for i, ei in enumerate(e):
            for _ in range(ei):
                m = m * lin[i]
        out = out + m.scale(c)
    return out


def divided_difference(alg, p, i):
    """(p - p o sigma_alpha) / <x, alpha> for positive root i, monomial by
    monomial from the cached D_i(x^e)."""
    terms: dict = {}
    for e, c in p.terms.items():
        _add_scaled(terms, alg._divided_monomial(i, e), c)
    return Polynomial(alg.dim, terms)


def divide_linear_by_slices(p, coeffs, exact):
    """Long division by sum_j coeffs[j] x_j with the pivot inverted once per
    slice and each quotient slice raised by x_pivot products (remainder
    assumed zero)."""
    d = p.dim
    if exact:
        pivot = next(j for j in range(d) if not _is_zero(coeffs[j]))
    else:
        pivot = int(np.argmax([abs(float(c)) for c in coeffs]))
    cp = coeffs[pivot]
    slices: dict = {}
    for e, c in p.terms.items():
        slices.setdefault(e[pivot], {})[e[:pivot] + (0,) + e[pivot + 1:]] = c
    lrest = Polynomial(d, {_unit(d, j): coeffs[j] for j in range(d) if j != pivot and not _is_zero(coeffs[j])})
    kmax = max(slices)
    quot = {}
    carry = Polynomial(d, slices.get(kmax, {}))
    for k in range(kmax, 0, -1):
        b = carry.scale(_invert(cp, exact))
        quot[k - 1] = b
        carry = Polynomial(d, slices.get(k - 1, {})) - b * lrest
    out = Polynomial.zero(d)
    xpiv = Polynomial.variable(pivot + 1, d, _one_like(cp))
    for k, q in quot.items():
        for _ in range(k):
            q = q * xpiv
        out = out + q
    return out


def test_ring_basics():
    x = Polynomial.variable(1, 1)
    assert (x * x).terms == {(2,): 1}
    p = P(2, {(2, 0): 1, (0, 1): 1})
    assert p.eval((2, 3)) == Surd.of(7)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(1, 1) + Polynomial.variable(1, 2)


def test_compose_linear_reflection():
    # pullback through the coordinate reflection flips x1
    x1 = Polynomial.variable(1, 2)
    sig = ((-1.0, 0.0), (0.0, 1.0))
    assert compose_linear(x1, sig).terms == {(1, 0): -1.0}


def test_degree_sentinel():
    assert Polynomial.zero(3).degree == float("-inf")
    assert P(1, {(4,): 2}).degree == 4


small_polys = st.builds(
    lambda coeffs: Polynomial(2, {e: Fraction(c) for e, c in coeffs.items() if c}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=5,
    ),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p - q) + q == p


def test_divided_difference_examples():
    rs1 = root_system("z2", multiplicity=1)
    alg = get_algebra(rs1)
    x = alg.variable(1)
    assert divided_difference(alg, x * x, 0).is_zero()
    dd = divided_difference(alg, x, 0)
    assert dd.terms == {(0,): SQRT2}
    rs2 = root_system("z2^2", multiplicity=[1, 1])
    alg2 = get_algebra(rs2)
    p = alg2.monomial((1, 1))
    dd2 = divided_difference(alg2, p, 0)
    assert dd2.terms == {(0, 1): SQRT2}


def test_divide_linear_remainder_guard():
    # x1^2 + 1 is not divisible by x1
    p = P(1, {(2,): 1, (0,): 1})
    with pytest.raises(NonzeroRemainder):
        divide_linear(p, [Surd.of(1)], exact=True)


@pytest.mark.parametrize("kappa,expect", [(0, 1), (Fraction(1, 2), 2), (1, 3), (2, 5)])
def test_dunkl_on_x(kappa, expect):
    rs = root_system("z2", multiplicity=kappa)
    alg = get_algebra(rs)
    out = alg.dunkl(1, alg.variable(1))
    assert out.terms == {(0,): Surd.of(expect)}  # 1 + 2 kappa


def test_dunkl_classical_reduction():
    rs = root_system("z2^2", multiplicity=[0, 0])
    alg = get_algebra(rs)
    p = alg.monomial((2, 1))
    assert alg.dunkl(1, p) == alg.monomial((1, 1), 2)
    assert alg.dunkl(2, p) == alg.monomial((2, 0))


def test_dunkl_kills_constants():
    alg = get_algebra(root_system("a2", multiplicity=1))
    assert alg.dunkl(1, alg.constant(5)).is_zero()


def test_dunkl_lowers_degree_homogeneous(a2_one):
    alg = get_algebra(a2_one)
    p = alg.monomial((2, 2))
    for j in (1, 2):
        out = alg.dunkl(j, p)
        assert out.degree == 3


def test_laplacian_examples():
    rs = root_system("z2", multiplicity=Fraction(1, 2))
    alg = get_algebra(rs)
    x = alg.variable(1)
    assert alg.laplacian(x * x).terms == {(0,): Surd.of(4)}  # 2 + 4 kappa
    rs0 = root_system("z2^2", multiplicity=[0, 0])
    alg0 = get_algebra(rs0)
    q = alg0.monomial((2, 0)) + alg0.monomial((0, 2))
    assert alg0.laplacian(q).terms == {(0, 0): Surd.of(4)}
    assert alg0.laplacian(alg0.variable(1)).is_zero()


def test_exp_laplacian_examples():
    rs = root_system("z2", multiplicity=Fraction(1, 2))
    alg = get_algebra(rs)
    x = alg.variable(1)
    out = alg.exp_laplacian(x * x, Fraction(-1, 4))
    assert out == x * x - alg.constant(1)  # x^2 - (1+2k)/2 at k=1/2
    c = alg.constant(3)
    assert alg.exp_laplacian(c, Fraction(7, 2)) == c
    assert alg.exp_laplacian(x * x, 0) == x * x


@given(small_polys, st.integers(-3, 3))
@settings(max_examples=30)
def test_exp_laplacian_inverse(p, num):
    rs = root_system("z2^2", multiplicity=[Fraction(1, 2), Fraction(3, 2)])
    alg = get_algebra(rs)
    p = p.map_coefficients(Surd.of)
    s = Fraction(num, 4)
    assert alg.exp_laplacian(alg.exp_laplacian(p, s), -s) == p


@pytest.mark.parametrize("kappa", [0, Fraction(1, 2), 2])
def test_conjugated_oscillator_ground_state(kappa):
    rs = root_system("z2", multiplicity=kappa)
    alg = get_algebra(rs)
    out = alg.conjugated_oscillator(alg.constant(1))
    assert out.terms == {(0,): Surd.of(1 + 2 * Fraction(kappa))}


def test_conjugated_oscillator_degree_one():
    rs = root_system("z2", multiplicity=Fraction(1, 2))
    alg = get_algebra(rs)
    x = alg.variable(1)
    assert alg.conjugated_oscillator(x) == x.scale(Surd.of(4))  # (3+2k)x


def test_conjugated_oscillator_classical_dim():
    rs = root_system("z2^3", multiplicity=0)
    alg = get_algebra(rs)
    out = alg.conjugated_oscillator(alg.constant(1))
    assert out.terms == {(0, 0, 0): Surd.of(3)}


def test_oscillator_preserves_degree(a2_one):
    alg = get_algebra(a2_one)
    p = alg.monomial((3, 1)) + alg.monomial((1, 0))
    assert alg.conjugated_oscillator(p).degree == 4


def test_leibniz_with_invariant_factor():
    """T_j(p q) = (T_j p) q + p (T_j q) when q is G-invariant (here |x|^2)."""
    rs = root_system("z2^2", multiplicity=[Fraction(1, 2), 1])
    alg = get_algebra(rs)
    q = alg.monomial((2, 0)) + alg.monomial((0, 2))
    rng_terms = [((1, 2), Fraction(3)), ((2, 0), Fraction(-1, 2)), ((0, 1), Fraction(5))]
    p = Polynomial(2, {e: Surd.of(c) for e, c in rng_terms})
    for j in (1, 2):
        lhs = alg.dunkl(j, p * q)
        rhs = alg.dunkl(j, p) * q + p * alg.dunkl(j, q)
        assert lhs == rhs


def test_leibniz_with_invariant_factor_a2(a2_one):
    alg = get_algebra(a2_one)
    q = alg.monomial((2, 0)) + alg.monomial((0, 2))
    p = alg.monomial((2, 1)) + alg.monomial((1, 0), Fraction(-2, 3))
    for j in (1, 2):
        assert alg.dunkl(j, p * q) == alg.dunkl(j, p) * q + p * alg.dunkl(j, q)


def test_float_mode_matches_exact():
    rs_e = root_system("z2^2", multiplicity=[Fraction(1, 2), 1])
    rs_f = root_system("z2^2", multiplicity=[0.5, 1.0])
    alg_e = get_algebra(rs_e, exact=True)
    alg_f = get_algebra(rs_f, exact=False)
    p_e = alg_e.monomial((2, 2))
    p_f = alg_f.monomial((2, 2))
    out_e = alg_e.conjugated_oscillator(p_e)
    out_f = alg_f.conjugated_oscillator(p_f)
    for e, c in out_e.terms.items():
        assert out_f.terms[e] == pytest.approx(float(c), rel=1e-12)


EXACT_CATALOGUE = [
    ("z2", Fraction(1, 2)),
    ("z2^2", [1, Fraction(3, 2)]),
    ("z2^3", [Fraction(1, 2), 1, 2]),
    ("a2", 1),
    ("b2", [1, 2]),
    ("i2(3)", Fraction(1, 2)),
    ("i2(4)", [Fraction(1, 2), 2]),
    ("i2(6)", [1, Fraction(1, 3)]),
]


def _random_poly(alg, rng, max_degree=8, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        cuts = np.sort(rng.integers(0, deg + 1, alg.dim - 1))
        e = tuple(int(v) for v in np.diff(np.concatenate([[0], cuts, [deg]])))
        terms[e] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Polynomial(alg.dim, {e: Surd.of(c) for e, c in terms.items() if c})


def _dunkl_uncached(alg, j, p):
    """T_j p by dividing the whole numerator p - p o sigma_i for each root."""
    out = p.partial_derivative(j)
    for alpha, kappa, sigma in zip(alg.alphas, alg.kappas, alg.sigmas):
        num = p - compose_linear(p, sigma)
        if num.is_zero() or not kappa or not alpha[j - 1]:
            continue
        out = out + divide_linear(num, alpha, exact=True).scale(kappa * alpha[j - 1])
    return out


@pytest.mark.parametrize("group,kappa", EXACT_CATALOGUE)
def test_cached_dunkl_matches_whole_polynomial_division(group, kappa):
    rs = root_system(group, multiplicity=kappa)
    alg = get_algebra(rs, exact=True)
    rng = np.random.default_rng(2012)
    for _ in range(4):
        p = _random_poly(alg, rng)
        for j in range(1, rs.dim + 1):
            assert alg.dunkl(j, p) == _dunkl_uncached(alg, j, p)


def test_exact_and_float_algebras_keep_separate_caches():
    rs = root_system("a2", multiplicity=1)
    alg_e = get_algebra(rs, exact=True)
    alg_f = get_algebra(rs, exact=False)
    assert alg_e is not alg_f and get_algebra(rs) is alg_e
    p = alg_e.monomial((3, 1))
    out_e = alg_e.dunkl(1, p)
    out_f = alg_f.dunkl(1, p.to_float())
    assert all(isinstance(c, Fraction) for c in out_e.terms.values())
    assert all(isinstance(c, Fraction) for q in alg_e._dunkl_mono[0].values() for c in q.terms.values())
    for cache in alg_e._pulled:
        assert all(isinstance(c, Surd) for q in cache.values() for c in q.terms.values())
    assert all(type(c) is Fraction for cache in alg_e._commuted.values()
               for q in cache.values() for c in q.terms.values())
    assert not any(alg_e._divided)  # exact mode does no division
    assert all(isinstance(c, float) for c in out_f.terms.values())
    for e, c in out_e.terms.items():
        assert out_f.terms[e] == pytest.approx(float(c), rel=1e-13)


@pytest.mark.parametrize("group,kappa,exact", [
    ("z2", Fraction(1, 2), True), ("z2^2", [1, Fraction(3, 2)], True), ("a2", 1, True),
    ("b2", [1, 2], True), ("i2(3)", Fraction(1, 2), True), ("i2(4)", [Fraction(1, 2), 2], True),
    ("i2(6)", [1, Fraction(1, 3)], True), ("i2(5)", 1, False),
])
def test_divided_monomial_matches_product_pullback_and_slice_division(group, kappa, exact):
    """The cached pullback and the one-inverse division give D_i(x^e) term for
    term, in dict order, as the full product sequence and the slice-by-slice
    division, for every monomial up to degree 9."""
    rs = root_system(group, multiplicity=kappa)
    alg = get_algebra(rs, exact=exact)
    monomials = [e for e in np.ndindex(*(10,) * rs.dim) if sum(e) <= 9]
    for i, (alpha, sigma) in enumerate(zip(alg.alphas, alg.sigmas)):
        for e in monomials:
            mono = Polynomial.monomial(e, alg.one)
            num = mono - compose_linear(mono, sigma)
            want = num if num.is_zero() else divide_linear_by_slices(num, alpha, exact)
            got = alg._divided_monomial(i, e)
            assert list(got.terms.items()) == list(want.terms.items()), (i, e)


@pytest.mark.parametrize("group,kappa", [
    ("z2", Fraction(1, 2)), ("z2^3", [Fraction(1, 2), 1, 2]), ("a2", 1), ("b2", [1, 2]),
    ("i2(3)", Fraction(1, 2)), ("i2(4)", [Fraction(1, 2), 2]), ("i2(6)", [1, Fraction(1, 3)]),
])
def test_dunkl_of_every_monomial_is_rational(group, kappa):
    """T_j(x^e) has only Fraction coefficients on every exact catalogue group,
    for every axis and every monomial up to degree 9, and the commutator
    route that fills it equals the division route d x^e / dx_j +
    sum_i kappa_i alpha_ij D_i(x^e), summed here."""
    rs = root_system(group, multiplicity=kappa)
    alg = get_algebra(rs, exact=True)
    for e in (e for e in np.ndindex(*(10,) * rs.dim) if sum(e) <= 9):
        mono = Polynomial.monomial(e, Surd.of(1))
        for j in range(1, rs.dim + 1):
            got = alg._dunkl_monomial(j, e)
            assert all(type(c) is Fraction for c in got.terms.values())
            want = dict(mono.partial_derivative(j).terms)
            for i, (alpha, kappa_i) in enumerate(zip(alg.alphas, alg.kappas)):
                _add_scaled(want, alg._divided_monomial(i, e), kappa_i * alpha[j - 1])
            assert {c: Surd.of(v) for c, v in got.terms.items()} == want, (j, e)


def test_irrational_dunkl_coefficient_raises():
    """A pullback that would leave an irrational coefficient in T_1(x) (here
    kappa alpha_1^2 sqrt(3) = sqrt(3) in [T_1, x_1](1)) raises the typed
    error, naming T_1(x)."""
    alg = get_algebra(root_system("z2", multiplicity=Fraction(1, 2)), exact=True)
    alg._pulled[0][(0,)] = Polynomial(1, {(0,): Surd.sqrt_int(3)})
    with pytest.raises(IrrationalDunklCoefficient, match=r"^T_1\(x\^\(1,\)\) has the coefficient"):
        alg.dunkl(1, alg.variable(1))


def _count_divisions(monkeypatch) -> list:
    calls = []
    real = polyalg.divide_linear

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(polyalg, "divide_linear", counted)
    return calls


def test_exact_build_and_eigen_check_make_no_division(monkeypatch):
    calls = _count_divisions(monkeypatch)
    basis = build_basis(root_system("a2", multiplicity=1), 8, exact=True)
    assert check_eigen(basis).status == "pass"
    assert not calls
    build_basis(root_system("i2(5)", multiplicity=1), 4, exact=False)
    assert calls


def test_exact_build_and_eigen_check_apply_no_polynomial_operator(monkeypatch):
    """An exact build takes H_raw, and its eigen check the residuals, from
    integer blocks: neither calls exp_laplacian or conjugated_oscillator.  A
    float build and its check still call both."""
    calls = {"exp_laplacian": 0, "conjugated_oscillator": 0}
    for name in calls:
        real = getattr(DunklAlgebra, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(DunklAlgebra, name, counted)
    basis = build_basis(root_system("a2", multiplicity=1), 8, exact=True)
    assert check_eigen(basis).status == "pass"
    assert calls == {"exp_laplacian": 0, "conjugated_oscillator": 0}
    basis = build_basis(root_system("i2(5)", multiplicity=1), 4, exact=False)
    assert check_eigen(basis).status == "pass"
    assert calls == {"exp_laplacian": basis.size, "conjugated_oscillator": basis.size}
