"""Sparse multivariate polynomials and the exact action of Dunkl operators.

Polynomials are exponent-tuple -> coefficient maps.  Coefficients are duck
typed: Fractions in exact mode, floats otherwise.  The Dunkl operator

    T_j p = d p/dx_j + sum_{alpha in R+} kappa(alpha) alpha_j
            (p - p o sigma_alpha) / <x, alpha>

is linear, so it is applied monomial by monomial, from a cache of T_j(x^e).
The pullbacks x^e o sigma_alpha sit in a per-root cache and cost one product
each: x^e o sigma = (x^(e - u_k) o sigma) (sigma x)_k, with k the last
nonzero index of e, is the product sequence x_1^e_1 ... x_d^e_d with its last
factor split off.

Exact mode fills the T_j cache without any division, from the commutator
(Roesler, Comm. Math. Phys. 192, 1998)

    [T_j, x_m] = delta_jm + sum_{alpha in R+} kappa(alpha) alpha_j alpha_m sigma_alpha,

which holds as written for |alpha|^2 = 2, the norm of every exact root (the
exact sigma is I - alpha alpha^T).  With m the last nonzero index of e and
b = e - u_m,

    T_j(x^e) = x_m T_j(x^b) + [T_j, x_m](x^b),

and [T_j, x_m](x^b) reads only the cached pullbacks x^b o sigma_alpha of
degree |e| - 1; it is symmetric in j and m and cached once per pair.  Float
mode (whose roots need not have |alpha|^2 = 2) takes each divided difference
(x^e - x^e o sigma_alpha) / <x, alpha> as a division of the numerator by the
linear form <x, alpha> (the numerator vanishes on the mirror; a nonzero
remainder signals a bug, never valid input), made once per monomial and
root; the division inverts the pivot coefficient once and places each
quotient slice by shifting exponents.  In exact mode that route is the test
oracle of the commutator.

Exact root coordinates are surds (qfield.Surd), and surds live only in the
sigma rows, the pullbacks and the commutator sums.  On every exact catalogue
group each T_j(x^e) comes out rational (the tests check every monomial up to
degree 9), most likely because each root set is closed, up to sign, under
the conjugations sqrt(2) -> -sqrt(2) and sqrt(3) -> -sqrt(3), which T_j then
commutes with; so is each [T_j, x_m](x^b), the difference of two of them.
Both caches store these coefficients as Fractions, so every exact scalar
downstream of T_j (Gram blocks, psi, H, norms, delta_j pairings, eigen
residuals) is rational; dunkl_columns hands a block's M_j^(k) to the integer
block products of hermite, spectral and verify over one denominator.  A coefficient that is not
rational raises IrrationalDunklCoefficient, naming the T_j(x^e) being
filled.

Sums over the monomials of an argument (T_j p, p(T) q) accumulate into one
dict in place, with the add / insert / drop-zero order of Polynomial.__add__,
so every coefficient and the order of the terms are those of the
term-by-term sum; the float bits do not depend on the route.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .qfield import Surd
from .reflection import RootSystem, _exact_reflection_matrix, reflection_matrix


class DimensionMismatch(ValueError):
    pass


class NonzeroRemainder(ArithmeticError):
    """Division by a mirror linear form left a remainder; arithmetic bug."""


class IrrationalDunklCoefficient(ArithmeticError):
    """A coefficient of T_j(x^e) is not rational: the root system is not closed
    under the conjugations of its surds (no catalogue group is)."""


class NoExactCoordinates(ValueError):
    """Exact arithmetic requested on a root system without exact coordinates
    or multiplicities (e.g. i2(5)); build it in float arithmetic instead."""


NEG_INF = float("-inf")


class Polynomial:
    """Sparse polynomial over R^d; immutable by convention."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = terms or {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c) -> "Polynomial":
        if _is_zero(c):
            return cls(dim, {})
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def monomial(cls, exponents, c=1) -> "Polynomial":
        exponents = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        if _is_zero(c):
            return cls(len(exponents), {})
        return cls(len(exponents), {exponents: c})

    @classmethod
    def variable(cls, j: int, dim: int, c=1) -> "Polynomial":
        """x_j (1-based axis index)."""
        e = [0] * dim
        e[j - 1] = 1
        return cls.monomial(e, c)

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.dim, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c2 = terms.get(e, 0) + c if e in terms else c
            if _is_zero(c2):
                terms.pop(e, None)
            else:
                terms[e] = c2
        return Polynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                c3 = terms.get(e, 0) + c if e in terms else c
                if _is_zero(c3):
                    terms.pop(e, None)
                else:
                    terms[e] = c3
        return Polynomial(self.dim, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        if _is_zero(c):
            return Polynomial.zero(self.dim)
        return Polynomial(self.dim, {e: c * v for e, v in self.terms.items()})

    # -- calculus and evaluation --------------------------------------------

    @property
    def degree(self):
        """Max total degree; -inf for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def is_zero(self) -> bool:
        return not self.terms

    def partial_derivative(self, j: int) -> "Polynomial":
        """d/dx_j (1-based)."""
        i = j - 1
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[e2] = terms.get(e2, 0) + c * e[i]
        return Polynomial(self.dim, {e: c for e, c in terms.items() if not _is_zero(c)})

    def __call__(self, point):
        return self.eval(point)

    def eval(self, point):
        """Evaluate at a point (sequence of scalars, exact or float)."""
        if len(point) != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                if ei:
                    v = v * xi**ei
            total = total + v
        return total

    def eval_float(self, x) -> np.ndarray | float:
        """Vectorized float evaluation; x has shape (..., d)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for e, c in self.terms.items():
            term = float(c) * np.ones_like(out)
            for i, ei in enumerate(e):
                if ei:
                    term = term * x[..., i] ** ei
            out = out + term
        return float(out) if out.ndim == 0 else out

    def map_coefficients(self, fn) -> "Polynomial":
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not _is_zero(v):
                terms[e] = v
        return Polynomial(self.dim, terms)

    def to_float(self) -> "Polynomial":
        return self.map_coefficients(float)

    def constant_term(self):
        return self.terms.get((0,) * self.dim, 0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"({self.terms[e]})*{mono}")
        return " + ".join(bits)


def _unit(d, j):
    e = [0] * d
    e[j] = 1
    return tuple(e)


def _is_zero(c) -> bool:
    return not c


def _rational(c, j: int, e: tuple) -> Fraction:
    """The coefficient c of T_j(x^e) as a Fraction."""
    if isinstance(c, Fraction):
        return c
    if not c.is_rational():
        raise IrrationalDunklCoefficient(f"T_{j}(x^{e}) has the coefficient {c!r}")
    return c.terms[1]


def _add_scaled(terms: dict, p: Polynomial, c) -> None:
    """terms += c * p in place: the terms, order and zero drops of
    Polynomial(d, terms) + p.scale(c)."""
    if _is_zero(c):
        return
    for e, v in p.terms.items():
        v = c * v
        if e in terms:
            v = terms[e] + v
        if _is_zero(v):
            terms.pop(e, None)
        else:
            terms[e] = v


def divide_linear(p: Polynomial, coeffs, exact: bool, rel_tol: float = 1e-9):
    """Divide p by the linear form sum_j coeffs[j] x_j; return the quotient.

    Long division in the pivot variable (first/largest nonzero coefficient),
    with the pivot coefficient inverted once.  Raises NonzeroRemainder unless
    the remainder vanishes (exactly in exact mode, relative to the numerator
    scale in float mode).
    """
    d = p.dim
    if exact:
        pivot = next(j for j in range(d) if not _is_zero(coeffs[j]))
    else:
        pivot = int(np.argmax([abs(float(c)) for c in coeffs]))
    inv = _invert(coeffs[pivot], exact)
    # split p into slices by pivot exponent
    slices: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[pivot]
        rest = e[:pivot] + (0,) + e[pivot + 1:]
        slices.setdefault(k, {})[rest] = c
    if not slices:
        return Polynomial.zero(d)
    lrest = Polynomial(d, {_unit(d, j): coeffs[j] for j in range(d) if j != pivot and not _is_zero(coeffs[j])})
    kmax = max(slices)
    quot_slices: dict[int, Polynomial] = {}
    carry = Polynomial(d, slices.get(kmax, {}))
    for k in range(kmax, 0, -1):
        b = carry.scale(inv)
        quot_slices[k - 1] = b
        lower = Polynomial(d, slices.get(k - 1, {}))
        carry = lower - b * lrest
    rem = carry
    if exact:
        if not rem.is_zero():
            raise NonzeroRemainder(f"nonzero remainder {rem!r}")
    else:
        scale = max((abs(float(c)) for c in p.terms.values()), default=0.0)
        if any(abs(float(c)) > rel_tol * max(scale, 1e-300) for c in rem.terms.values()):
            raise NonzeroRemainder("remainder above float tolerance")
    # slice k holds the coefficients of x_pivot^k; its keys have pivot exponent 0
    terms = {}
    for k, q in quot_slices.items():
        for e, c in q.terms.items():
            if not _is_zero(c):
                terms[e[:pivot] + (k,) + e[pivot + 1:]] = c
    return Polynomial(d, terms)


def _invert(c, exact: bool):
    if exact:
        return Surd.of(c).inverse()
    return 1.0 / float(c)


class DunklAlgebra:
    """Dunkl operator calculus bound to one root system.

    T_j is linear, so it is applied as the sparse sum of its values on the
    monomials of p.  T_j(x^e) is computed once per axis: in exact mode from
    T_j(x^(e - u_m)) and the commutator [T_j, x_m] (the roots have
    |alpha|^2 = 2; no division), in float mode from the divided differences
    D_i(x^e), each computed once per root.  Repeated T_j applications on
    graded bases then cost only coefficient arithmetic.
    """

    def __init__(self, rs: RootSystem, exact: bool | None = None):
        if exact is None:
            exact = rs.exact_capable
        if exact and not rs.exact_capable:
            raise NoExactCoordinates(
                f"root system {rs.name} has no exact coordinates/multiplicities; "
                "use float arithmetic"
            )
        # no reference back to rs: get_algebra stores this object in rs._cache,
        # and a cycle would keep both caches alive until a full gc pass
        self.exact = exact
        self.dim = rs.dim
        if exact:
            self.alphas = [tuple(a) for a in rs.exact_roots]
            self.kappas = [Surd.of(f) for f in rs.multiplicity_exact]
            self.sigmas = [_exact_reflection_matrix(a) for a in rs.exact_roots]
            self.one = Fraction(1)
            field_one = Surd.of(1)  # where the surd pullbacks start
        else:
            self.alphas = [tuple(float(v) for v in a) for a in rs.positive_roots]
            self.kappas = [float(k) for k in rs.multiplicity]
            self.sigmas = [tuple(tuple(row) for row in reflection_matrix(a)) for a in rs.positive_roots]
            self.one = field_one = 1.0
        # root i: the rows (sigma_i x)_k as linear polynomials, e -> x^e o sigma_i,
        # and e -> D_i(x^e) (float mode)
        self._sigma_rows = [
            [Polynomial(self.dim, {_unit(self.dim, j): c for j, c in enumerate(row) if not _is_zero(c)})
             for row in sigma]
            for sigma in self.sigmas
        ]
        self._pulled: list[dict] = [{(0,) * self.dim: Polynomial.constant(self.dim, field_one)}
                                    for _ in self.alphas]
        self._divided: list[dict] = [dict() for _ in self.alphas]
        # axis j-1: (i, kappa_i alpha_ij) for the roots where it is nonzero
        self._weights = [[(i, k * a[j]) for i, (k, a) in enumerate(zip(self.kappas, self.alphas))
                          if not _is_zero(k) and not _is_zero(a[j])] for j in range(self.dim)]
        # axes j-1 <= m-1: (i, kappa_i alpha_ij alpha_im) where nonzero, and
        # b -> [T_j, x_m](x^b) (exact mode)
        self._pair_weights = {(j, m): [(i, w * self.alphas[i][m]) for i, w in self._weights[j]
                                       if not _is_zero(self.alphas[i][m])]
                              for j in range(self.dim) for m in range(j, self.dim)}
        self._commuted: dict = {pair: {} for pair in self._pair_weights}
        self._dunkl_mono: list[dict] = [dict() for _ in range(self.dim)]  # axis j-1: e -> T_j(x^e)

    # -- constructors in the right coefficient ring -------------------------

    def scalar(self, v):
        return Fraction(v) if self.exact else float(v)

    def constant(self, v) -> Polynomial:
        return Polynomial.constant(self.dim, self.scalar(v))

    def monomial(self, exponents, c=1) -> Polynomial:
        return Polynomial.monomial(exponents, self.scalar(c))

    def variable(self, j: int) -> Polynomial:
        return Polynomial.variable(j, self.dim, self.scalar(1))

    # -- operators -----------------------------------------------------------

    def _pullback(self, i: int, e: tuple) -> Polynomial:
        """x^e o sigma_i = (x^(e - u_k) o sigma_i) (sigma_i x)_k, k the last
        nonzero index of e: one product per new monomial, computed once."""
        cache = self._pulled[i]
        if e not in cache:
            k = max(m for m, ek in enumerate(e) if ek)
            prev = e[:k] + (e[k] - 1,) + e[k + 1:]
            cache[e] = self._pullback(i, prev) * self._sigma_rows[i][k]
        return cache[e]

    def _divided_monomial(self, i: int, e: tuple) -> Polynomial:
        """D_i(x^e) = (x^e - x^e o sigma_i) / <x, alpha_i>, computed once.

        The float remainder test of divide_linear is thus taken against a
        monomial's own numerator, not against that of a whole polynomial,
        which is pure rounding noise when the polynomial is sigma-symmetric.
        """
        cache = self._divided[i]
        if e not in cache:
            num = Polynomial.monomial(e, self.one) - self._pullback(i, e)
            cache[e] = num if num.is_zero() else divide_linear(num, self.alphas[i], self.exact)
        return cache[e]

    def _dunkl_monomial(self, j: int, e: tuple) -> Polynomial:
        """T_j(x^e), computed once: from the commutator in exact mode, as
        d x^e / dx_j + sum_i kappa_i alpha_ij D_i(x^e) in float mode."""
        cache = self._dunkl_mono[j - 1]
        if e not in cache:
            if self.exact:
                cache[e] = self._dunkl_commuted(j, e)
            else:
                terms = dict(Polynomial.monomial(e, self.one).partial_derivative(j).terms)
                for i, w in self._weights[j - 1]:
                    _add_scaled(terms, self._divided_monomial(i, e), w)
                cache[e] = Polynomial(self.dim, terms)
        return cache[e]

    def _dunkl_commuted(self, j: int, e: tuple) -> Polynomial:
        """T_j(x^e) = x_m T_j(x^b) + [T_j, x_m](x^b), b = e - u_m, with m the
        last nonzero index of e (that of _pullback)."""
        if not any(e):
            return Polynomial.zero(self.dim)
        m = max(k for k, ek in enumerate(e) if ek)
        b = e[:m] + (e[m] - 1,) + e[m + 1:]
        terms = {c[:m] + (c[m] + 1,) + c[m + 1:]: v for c, v in self._dunkl_monomial(j, b).terms.items()}
        _add_scaled(terms, self._commutator(j, m + 1, b, e), self.one)
        return Polynomial(self.dim, terms)

    def _commutator(self, j: int, m: int, b: tuple, e: tuple) -> Polynomial:
        """[T_j, x_m](x^b) = delta_jm x^b + sum_i kappa_i alpha_ij alpha_im
        (x^b o sigma_i), computed once per unordered pair (j, m) and b, as
        Fractions; e names the T_j(x^e) being filled in the error."""
        pair = (min(j, m) - 1, max(j, m) - 1)
        cache = self._commuted[pair]
        if b not in cache:
            terms = {b: Surd.of(1)} if j == m else {}
            for i, w in self._pair_weights[pair]:
                _add_scaled(terms, self._pullback(i, b), w)
            cache[b] = Polynomial(self.dim, {c: _rational(v, j, e) for c, v in terms.items()})
        return cache[b]

    def dunkl_columns(self, j: int, block: list, position: dict) -> tuple[list, int]:
        """M_j^(k), the matrix of T_j from the homogeneous block `block` of
        degree k to degree k - 1 (exact mode), by columns and over one
        denominator D: for each x^b in the block, the pairs (position[c], n)
        with n / D the coefficient of x^c in T_j(x^b).  Returns (columns, D)."""
        polys = [self._dunkl_monomial(j, b).terms for b in block]
        den = math.lcm(*(v.denominator for terms in polys for v in terms.values()))
        return [[(position[c], v.numerator * (den // v.denominator)) for c, v in terms.items()]
                for terms in polys], den

    def dunkl(self, j: int, p: Polynomial) -> Polynomial:
        """T_j p (1-based axis j); degree-lowering on homogeneous input."""
        terms: dict = {}
        for e, c in p.terms.items():
            _add_scaled(terms, self._dunkl_monomial(j, e), c)
        return Polynomial(self.dim, terms)

    def laplacian(self, p: Polynomial) -> Polynomial:
        """Dunkl Laplacian: sum_j T_j^2 p."""
        return self._laplacian([self.dunkl(j, p) for j in range(1, self.dim + 1)])

    def _laplacian(self, first: list) -> Polynomial:
        """sum_j T_j (T_j p) from first[j - 1] = T_j p."""
        out = Polynomial.zero(self.dim)
        for j, tp in enumerate(first, 1):
            out = out + self.dunkl(j, tp)
        return out

    def exp_laplacian(self, p: Polynomial, s) -> Polynomial:
        """exp(s * Laplacian) p -- a finite sum since the Laplacian lowers degree.

        A float build takes H_raw_n = 2^|n| exp_laplacian(psi_n, -1/4) here.
        An exact build takes it from integer Laplacian blocks instead
        (hermite._hermite_raw_exact), and this route, in exact mode, is the
        oracle the tests hold it to.  In exact mode s must be rational.
        """
        s = self.scalar(s)
        out = p
        term = p
        k = 0
        deg = p.degree
        if deg == NEG_INF:
            return p
        while 2 * (k + 1) <= deg:
            k += 1
            term = self.laplacian(term)
            if term.is_zero():
                break
            out = out + term.scale(s**k / math.factorial(k))
        return out

    def conjugated_oscillator(self, p: Polynomial) -> Polynomial:
        """Gaussian-conjugated harmonic oscillator:

        L~ p = -Laplacian p + sum_j [ x_j T_j p + T_j(x_j p) ],
        satisfying L(e^{-|x|^2/2} p) = e^{-|x|^2/2} L~ p.  Degree preserving;
        generalized Hermite polynomials are its eigenvectors with eigenvalue
        2|n| + 2 gamma + d.

        verify.check_eigen applies it to a float basis.  On an exact basis the
        check takes the residuals from integer blocks, degree by degree
        (verify._eigen_residuals_exact), and this route, in exact mode, is the
        oracle the tests hold them to.
        """
        first = [self.dunkl(j, p) for j in range(1, self.dim + 1)]
        out = -self._laplacian(first)
        for j, tp in enumerate(first, 1):
            xj = self.variable(j)
            out = out + xj * tp + self.dunkl(j, xj * p)
        return out

    def apply_poly_operator(self, p: Polynomial, q: Polynomial, cache: dict | None = None) -> Polynomial:
        """p(T) q: substitute T_j for x_j in p and apply to q.

        An optional cache maps exponent tuples m to T^m q, shared across calls
        with the same q (used heavily by the pairing).
        """
        if cache is None:
            cache = {(0,) * self.dim: q}
        terms: dict = {}
        for e, c in p.terms.items():
            _add_scaled(terms, self._t_power(e, q, cache), c)
        return Polynomial(self.dim, terms)

    def _t_power(self, e: tuple, q: Polynomial, cache: dict) -> Polynomial:
        if e in cache:
            return cache[e]
        j = next(i for i, k in enumerate(e) if k)
        prev = e[:j] + (e[j] - 1,) + e[j + 1:]
        val = self.dunkl(j + 1, self._t_power(prev, q, cache))
        cache[e] = val
        return val


def get_algebra(rs: RootSystem, exact: bool | None = None) -> DunklAlgebra:
    """Memoized DunklAlgebra per root system and arithmetic mode."""
    key = ("algebra", exact if exact is not None else rs.exact_capable)
    if key not in rs._cache:
        rs._cache[key] = DunklAlgebra(rs, exact)
    return rs._cache[key]

