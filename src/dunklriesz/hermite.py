"""Dunkl bilinear pairing, orthonormal polynomial system, and the generalized
Hermite polynomials H_n / Hermite functions h_n.

Construction follows the graded structure: the pairing [p,q] = (p(T)q)(0)
vanishes between different homogeneous degrees, so Gram-Schmidt runs one
degree block at a time on the monomials in graded-lexicographic order, with
positive leading coefficients (the basis is not unique; this is the canonical
deterministic choice).  An exact build takes each Gram block from the one
below it, row by row: (T^a x^b)(0) over the block is R_a = R_{a - u_j} M_j^(k),
with M_j^(k) the matrix of T_j from degree k to k - 1 (_dunkl_blocks,
_gram_blocks), and orthogonalizes it in integers (_gram_schmidt_exact): every
row of G_k, of W_k = Psi_k^T G_k and every psi_n is an integer vector over one
denominator (qfield), and psi_n and the norms are turned back once into the
same Fractions.  A float build keeps the T-power chains of _gram_block, the
Gram-Schmidt of _gram_schmidt_float and their float bits.  Then

    H_n = 2^|n| exp(-Laplacian/4) phi_n,
    h_n = 2^(-|n|/2) sqrt(m_kappa) e^(-|x|^2/2) H_n.

An exact build applies exp(-Laplacian/4) to psi_n's integer vector through
the per-degree Laplacian blocks Delta^(k) = sum_j M_j^(k-1) M_j^(k)
(_laplacian_blocks, _hermite_raw_exact) and turns each coefficient once into
the same Fraction as DunklAlgebra.exp_laplacian, which a float build applies
and the tests keep as the oracle of the exact route.

A basis holds one orthogonal system psi_n, the polynomials
H_raw_n = 2^|n| e^(-Laplacian/4) psi_n and the norms [psi_n, psi_n], all in
the scalars of its own algebra.  An exact build keeps psi_n unnormalized over
the rationals with its exact norms, so every exact identity is a ratio of
Fractions and never needs the square root; it also keeps its integer Gram
blocks, in _cache["gram"], and, for the delta_j pairings, the rows of W_k,
in _cache["w"].  A float build, and a basis loaded from a file, keep the
orthonormal psi_n = phi_n and H_raw_n = H_n, with norms 1.  Every basis also
carries the normalized float H_n it evaluates with; an exact build lists the
terms of H_raw_n, and so of H_n, by (-|e|, e), so its float bits do not
depend on the term order of the algebra.  A basis file holds phi_n and H_n; its `norms` entry is
informational (the exact norms as floats, 1.0 for a float build).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polyalg import DunklAlgebra, Polynomial, _is_zero, get_algebra
from .qfield import apply_columns, reduced
from .reflection import RootSystem, gamma, root_system


class GramSingular(ArithmeticError):
    """Degree-block Gram matrix numerically singular (float mode only)."""


class IndexOutOfTruncation(ValueError):
    pass


class QuadratureNonConvergence(ArithmeticError):
    pass


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)   # np.exp is finite up to here


class BasisChecksum(ValueError):
    """Serialized basis failed its integrity check."""


def enumerate_indices(dim: int, N: int) -> list[tuple]:
    """Multi-indices |n| <= N in graded-lexicographic order."""
    out = []
    for deg in range(N + 1):
        out.extend(_indices_of_degree(dim, deg))
    return out


def _indices_of_degree(dim: int, deg: int) -> list[tuple]:
    if dim == 1:
        return [(deg,)]
    out = []
    for k in range(deg + 1):
        out.extend((k,) + rest for rest in _indices_of_degree(dim - 1, deg - k))
    out.sort()
    return out


def pairing(rs: RootSystem, p: Polynomial, q: Polynomial, exact: bool | None = None):
    """Dunkl bilinear form [p, q] = (p(T) q)(0).

    Symmetric, positive definite on each homogeneous block for kappa >= 0,
    and zero between distinct homogeneous degrees.  Exact arithmetic is used
    when the system supports it and both arguments carry exact coefficients.
    """
    if exact is None:
        exact = rs.exact_capable and _poly_exact(p) and _poly_exact(q)
    alg = get_algebra(rs, exact)
    if not exact:
        p = p.to_float()
        q = q.to_float()
    return alg.apply_poly_operator(p, q).constant_term()


def _poly_exact(p: Polynomial) -> bool:
    return all(not isinstance(c, float) for c in p.terms.values())


def _gram_block(alg: DunklAlgebra, indices: list[tuple]):
    """Gram matrix [x^a, x^b] for all a, b in one degree block.

    For each column q = x^b the powers T^a q are built along prefix chains and
    cached, so the whole block costs O(#indices(<=deg)) Dunkl applications per
    column.  Float builds take this route, whose order fixes their bits;
    exact builds take _gram_blocks.
    """
    B = len(indices)
    G = [[None] * B for _ in range(B)]
    for col, b in enumerate(indices):
        q = alg.monomial(b)
        cache = {(0,) * alg.dim: q}
        for row, a in enumerate(indices):
            G[row][col] = alg._t_power(a, q, cache).constant_term()
    return G


def _dunkl_blocks(alg: DunklAlgebra, K: int) -> tuple[list, list]:
    """The homogeneous blocks of degree k <= K, in the order of
    _indices_of_degree, and per k >= 1 the matrices M_j^(k) of T_j from block
    k to block k - 1 (exact mode): one (columns, denominator) per axis j, as
    dunkl_columns gives them.  Entry 0 of the matrices is None."""
    blocks = [_indices_of_degree(alg.dim, k) for k in range(K + 1)]
    matrices = [None]
    for k in range(1, K + 1):
        prev = {b: i for i, b in enumerate(blocks[k - 1])}
        matrices.append([alg.dunkl_columns(j, blocks[k], prev) for j in range(1, alg.dim + 1)])
    return blocks, matrices


def _gram_blocks(blocks: list, matrices: list) -> list:
    """Exact Gram blocks G_k[a][b] = (T^a x^b)(0), |a| = |b| = k, for the
    blocks and matrices of _dunkl_blocks, each row an integer vector over one
    denominator: G_k is the list of rows (numerators, denominator), reduced.

    Row a of G_k is R_a = R_{a - u_j} M_j^(k), with j the first nonzero index
    of a (the order of _t_power) and R_{a - u_j} a row of G_{k-1}: T^a x^b =
    T^(a - u_j) (T_j x^b), and the columns of M_j^(k) are the cached T_j(x^b).
    One integer vector-matrix product per index a replaces one T-power chain
    per column; the entries are the same rationals.
    """
    grams = [[([1], 1)]]
    for k in range(1, len(blocks)):
        prev = {b: i for i, b in enumerate(blocks[k - 1])}
        G = []
        for a in blocks[k]:
            j = next(i for i, ai in enumerate(a) if ai)
            row, row_den = grams[-1][prev[a[:j] + (a[j] - 1,) + a[j + 1:]]]
            columns, den = matrices[k][j]
            G.append(reduced([sum(row[c] * v for c, v in col) for col in columns], row_den * den))
        grams.append(G)
    return grams


def _laplacian_blocks(matrices: list) -> list:
    """The Dunkl Laplacian from block k to block k - 2, Delta^(k) =
    sum_j M_j^(k-1) M_j^(k), for 2 <= k < len(matrices) (the matrices of
    _dunkl_blocks), by columns over one denominator: (columns, den), each
    column the pairs (position in block k - 2, numerator).  Entries 0 and 1
    are None."""
    out = [None, None]
    for k in range(2, len(matrices)):
        pairs = list(zip(matrices[k], matrices[k - 1]))
        den = math.lcm(*(upper_den * lower_den for (_, upper_den), (_, lower_den) in pairs))
        columns = []
        for b in range(len(matrices[k][0][0])):
            acc: dict = {}
            for (upper, upper_den), (lower, lower_den) in pairs:
                f = den // (upper_den * lower_den)
                for c, v in upper[b]:
                    for e, u in lower[c]:
                        acc[e] = acc.get(e, 0) + f * v * u
            columns.append([(e, v) for e, v in acc.items() if v])
        out.append((columns, den))
    return out


def _hermite_raw_exact(v: list, v_den: int, k: int, blocks: list, laplacians: list) -> dict:
    """The terms of H_raw = 2^k e^(-Laplacian/4) psi for psi = v / v_den on
    block k (integers): the finite sum over m of (-1/4)^m / m! Delta^m psi,
    whose term m lives on block k - 2m and is the integer vector
    Delta^(k-2m+2) ... Delta^(k) v over v_den times the denominators of the
    Delta^(i).  Each coefficient is turned once into a Fraction; the terms come
    by (-|e|, e), the block order within a degree."""
    terms = {}
    num, den, m = 2 ** k, v_den, 0
    while True:
        terms.update((e, Fraction(num * c, den)) for e, c in zip(blocks[k], v) if c)
        if k < 2:
            return terms
        columns, lap_den = laplacians[k]
        k, m = k - 2, m + 1
        v = apply_columns(columns, v, len(blocks[k]))
        if not any(v):
            return terms
        den *= -4 * m * lap_den


def _gram_schmidt_exact(G: list, deg: int) -> tuple[list, list]:
    """Gram-Schmidt on one exact Gram block G (integer rows), in block order:
    psi_i = x^i - sum_{k<i} ([x^i, psi_k] / [psi_k, psi_k]) psi_k.

    Returns (Psi, W), per i the coefficients of psi_i over the block and the
    row W_i = psi_i^T G, that is [psi_i, x^c] for each c, both as reduced
    integer vectors over one denominator.  W_k carries the projections:
    [x^i, psi_k] is its entry i and [psi_k, psi_k] = [x^k, psi_k] its entry k
    (psi_k is x^k plus lower psi), so their ratio is a ratio of two numerators,
    and W_i[i] is the norm of psi_i.  The delta_j pairings reuse W.
    """
    B = len(G)
    den = math.lcm(*(row_den for _, row_den in G))
    columns = list(zip(*[[g * (den // row_den) for g in row] for row, row_den in G]))
    Psi, W = [], []
    for i in range(B):
        v, v_den = [0] * B, 1
        v[i] = 1
        for k, ((p, p_den), (wk, _)) in enumerate(zip(Psi, W)):
            if wk[i]:
                # v -= (wk[i] / wk[k]) psi_k
                v = [x * wk[k] * p_den - v_den * wk[i] * y for x, y in zip(v, p)]
                v_den *= wk[k] * p_den
        v, v_den = reduced(v, v_den)
        w, w_den = reduced([sum(map(operator.mul, col, v)) for col in columns], den * v_den)
        if not w[i]:
            raise GramSingular(f"zero norm in exact block deg={deg}")
        Psi.append((v, v_den))
        W.append((w, w_den))
    return Psi, W


@dataclass(eq=False)
class HermiteBasis:
    rs: RootSystem
    N: int
    exact: bool
    indices: list
    index_pos: dict
    psi: list                       # orthogonal system, the algebra's scalars
    H_raw: list                     # 2^|n| e^(-Lap/4) psi_n
    H: list                         # float Polynomials, 2^|n| e^(-Lap/4) phi_n
    norms: list                     # [psi_n, psi_n]
    c_kappa: float
    m_kappa: float
    gamma: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    def position(self, n) -> int:
        n = tuple(n)
        if n not in self.index_pos:
            raise IndexOutOfTruncation(f"{n} outside truncation N={self.N}")
        return self.index_pos[n]

    def eigenvalue(self, n) -> float:
        return 2.0 * sum(n) + 2.0 * self.gamma + self.rs.dim

    def eigenvalues(self) -> np.ndarray:
        return np.array([self.eigenvalue(n) for n in self.indices])

    def hermite_function(self, n, x):
        """h_n at x (point (d,) or batch (..., d)): row n of
        hermite_function_matrix."""
        pos = self.position(n)
        x = np.asarray(x, dtype=float)
        row = self.hermite_function_matrix(x.reshape(-1, self.rs.dim))[pos]
        return row.reshape(x.shape[:-1])[()]

    def hermite_function_matrix(self, x) -> np.ndarray:
        """h_n(x_q) for all basis indices; x shape (Q, d) -> (size, Q).

        Uses the per-axis recurrence for Z2^d systems (stable to high degree),
        falling back to polynomial evaluation otherwise.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        axis_k = self.rs.axis_kappas()
        if axis_k is not None:
            per_axis = [
                hermite_functions_1d(axis_k[j], self.N, x[:, j])
                for j in range(self.rs.dim)
            ]
            out = np.empty((self.size, x.shape[0]))
            for i, n in enumerate(self.indices):
                vals = per_axis[0][n[0]]
                for j in range(1, self.rs.dim):
                    vals = vals * per_axis[j][n[j]]
                out[i] = vals
            return out
        g = np.exp(-0.5 * np.sum(x * x, axis=-1))
        out = np.empty((self.size, x.shape[0]))
        for i, n in enumerate(self.indices):
            out[i] = (
                2.0 ** (-0.5 * sum(n))
                * math.sqrt(self.m_kappa)
                * g
                * self.H[i].eval_float(x)
            )
        return out


def build_basis(rs: RootSystem, N: int, exact: bool | None = None) -> HermiteBasis:
    """Construct the truncated Dunkl-Hermite system up to total degree N."""
    if N < 0:
        raise ValueError("truncation degree must be >= 0")
    if exact is None:
        exact = rs.exact_capable
    ck = c_kappa(rs)  # before the build: a c_kappa that overflows stops it
    alg = get_algebra(rs, exact)
    indices = enumerate_indices(rs.dim, N)
    index_pos = {n: i for i, n in enumerate(indices)}

    psi: list[Polynomial] = []
    norms = []
    if exact:
        # H_raw = 2^|n| e^(-Lap/4) psi_n from psi_n's integer vector and the
        # integer Laplacian blocks, its terms by (-|e|, e): the float sums of
        # eval_float over H then do not depend on how the algebra fills T_j
        blocks, matrices = _dunkl_blocks(alg, N)
        grams = _gram_blocks(blocks, matrices)
        laplacians = _laplacian_blocks(matrices)
        systems = [_gram_schmidt_exact(G, deg) for deg, G in enumerate(grams)]
        H_raw = []
        for deg, (block, (Psi, W)) in enumerate(zip(blocks, systems)):
            for i, ((v, v_den), (w, w_den)) in enumerate(zip(Psi, W)):
                psi.append(Polynomial(rs.dim, {idx: Fraction(c, v_den) for idx, c in zip(block, v) if c}))
                norms.append(Fraction(w[i], w_den))
                H_raw.append(Polynomial(rs.dim, _hermite_raw_exact(v, v_den, deg, blocks, laplacians)))
        H = _normalized(H_raw, norms)
    else:
        for deg in range(N + 1):
            block = _indices_of_degree(rs.dim, deg)
            for v, nv in _gram_schmidt_float(_gram_block(alg, block), deg):
                psi.append(Polynomial(rs.dim, {idx: c for idx, c in zip(block, v) if not _is_zero(c)}))
                norms.append(nv)
        # H_raw = 2^|n| e^(-Lap/4) psi_n
        H = _normalized([alg.exp_laplacian(p, -0.25).scale(2.0 ** sum(n)) for p, n in zip(psi, indices)],
                        norms)
        psi, H_raw, norms = _normalized(psi, norms), H, [1.0] * len(psi)

    g = gamma(rs)
    return HermiteBasis(
        rs=rs,
        N=N,
        exact=exact,
        indices=indices,
        index_pos=index_pos,
        psi=psi,
        H_raw=H_raw,
        H=H,
        norms=norms,
        c_kappa=ck,
        m_kappa=2.0 ** (g + rs.dim / 2.0) / ck,
        gamma=g,
        # the exact Gram blocks, and W_k = Psi_k^T G_k by rows for the block
        # products of spectral._block_pairings
        _cache={"gram": grams, "w": [W for _, W in systems]} if exact else {},
    )


def _normalized(polys: list, norms: list) -> list:
    """The float polynomials p_n / sqrt([psi_n, psi_n])."""
    return [p.to_float().scale(1.0 / math.sqrt(float(nv))) for p, nv in zip(polys, norms)]


def _gram_schmidt_float(G, deg: int) -> list:
    """Gram-Schmidt of a float build on its Gram block G, in block order: per
    i the coefficients of psi_i and [psi_i, psi_i] = v^T G v, in the
    arithmetic order that fixes the float bits."""
    B = len(G)
    vecs = []
    for i in range(B):
        v = [0.0] * B
        v[i] = 1.0
        for k in range(i):
            w, nw = vecs[k]
            # [x^i, psi_k] = sum_a w_a G[i][a]
            proj = sum((w[a] * G[i][a] for a in range(B) if not _is_zero(w[a])), 0.0)
            coef = proj / nw
            if not _is_zero(coef):
                v = [va - coef * wa for va, wa in zip(v, w)]
        nv = 0.0
        for a in range(B):
            if _is_zero(v[a]):
                continue
            for b in range(B):
                if not _is_zero(v[b]):
                    nv = nv + v[a] * G[a][b] * v[b]
        if nv <= 1e-13:
            raise GramSingular(f"Gram block numerically singular at deg={deg}")
        vecs.append((v, nv))
    return vecs


# ---------------------------------------------------------------------------
# normalization constants


def c_kappa(rs: RootSystem) -> float:
    """c_kappa = integral of e^(-|x|^2/2) w_kappa(x) dx.

    Z2^d: closed form prod_j 2^(2 kappa_j + 1/2) Gamma(kappa_j + 1/2); the
    extra 2^kappa_j comes from the sqrt(2)-normalized roots inside w_kappa.
    d = 2: every planar group is dihedral.  Its m = rs.num_roots roots fall
    into n = len(rs.orbits) orbits of m/n roots at equal angles, whose product
    on the unit circle is 2^(1 - m/(2n)) times |sin((m/n) theta + phi)| for one
    orbit and the matching |cos| for the other.  So c_kappa is the radial
    factor 2^gamma Gamma(gamma + 1) times a Beta integral (DLMF 5.12),

        int_0^2pi w_kappa = 2^e 2 Gamma(k1 + 1/2) Gamma(k2 + 1/2) / Gamma(k1 + k2 + 1),

    e = (k1 + k2)(2 - m/n), k2 = 0 for one orbit: the dihedral case of the
    Macdonald-Mehta integral, whatever the rotation phi.
    d >= 3: the exact Gaussian-moment expansion when all multiplicities are
    integers.
    Z2^d and planar groups raise QuadratureNonConvergence where the log of
    the closed form (or, in the plane, of its radial factor) is past that of
    the largest float: past kappa = 134.07 on z2, 75.14 on z2^2 (equal
    kappas), 50.04 on a2 and 37.53 on b2.
    Only the Z2^d branch calls scipy (gammaln), so it imports it there, and
    planar and exact builds load no scipy.
    """
    axis_k = rs.axis_kappas()
    if axis_k is not None:
        from scipy.special import gammaln
        log_c = np.sum((2.0 * axis_k + 0.5) * np.log(2.0) + gammaln(axis_k + 0.5))
        _check_fits(log_c)
        return float(np.exp(log_c))
    if rs.dim == 2:
        g = gamma(rs)
        k1, k2 = [float(rs.multiplicity[o[0]]) for o in rs.orbits] + [0.0] * (2 - len(rs.orbits))
        e = (k1 + k2) * (2.0 - rs.num_roots / len(rs.orbits))
        # the product below never exceeds the larger of the radial factor and c_kappa
        log_radial = g * math.log(2.0) + math.lgamma(g + 1.0)
        _check_fits(max(log_radial, log_radial + (e + 1.0) * math.log(2.0) + math.lgamma(k1 + 0.5)
                        + math.lgamma(k2 + 0.5) - math.lgamma(k1 + k2 + 1.0)))
        angular = (2.0 ** (e + 1.0) * math.gamma(k1 + 0.5) * math.gamma(k2 + 0.5)
                   / math.gamma(k1 + k2 + 1.0))
        return 2.0**g * math.gamma(g + 1.0) * angular
    if rs.multiplicity_exact is not None and all(
        f.denominator == 1 for f in rs.multiplicity_exact
    ):
        return _c_kappa_moments(rs)
    raise QuadratureNonConvergence(
        "no convergent c_kappa route for this group (d > 2, non-integer kappa)"
    )


def _check_fits(log_value) -> None:
    """Raise where a closed form of log c_kappa is past the largest float."""
    if log_value > _LOG_FLOAT_MAX:
        raise QuadratureNonConvergence(
            f"c_kappa overflows a float (its closed form reaches e^{float(log_value):.1f}):"
            " kappa too large for this group"
        )


def _c_kappa_moments(rs: RootSystem) -> float:
    """Exact Gaussian-moment expansion when w_kappa is a polynomial."""
    alg = get_algebra(rs, rs.exact_capable)
    w = alg.constant(1)
    for i, alpha in enumerate(alg.alphas):
        form = Polynomial(rs.dim, {})
        for j, aj in enumerate(alpha):
            e = [0] * rs.dim
            e[j] = 1
            form = form + Polynomial.monomial(e, aj)
        k = rs.multiplicity_exact[i] if rs.exact_capable else Fraction(rs.multiplicity[i])
        for _ in range(2 * int(k)):
            w = w * form
    total = 0.0
    for e, c in w.terms.items():
        if any(ei % 2 for ei in e):
            continue
        mom = 1.0
        for ei in e:
            mom *= _double_factorial(ei - 1)
        total += float(c) * mom
    return total * (2 * math.pi) ** (rs.dim / 2.0)


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# pointwise evaluation


def hermite_functions_1d(kappa: float, nmax: int, x) -> np.ndarray:
    """h_0..h_nmax for the rank-one system at points x, shape (nmax+1, len(x)).

    Three-term recurrence for the orthonormal polynomials r_n with weight
    2^kappa |u|^(2 kappa) e^(-u^2) (the measure w_kappa e^(-|x|^2) of the
    sqrt(2)-normalized Z2 root), then h_n = e^(-x^2/2) r_n, the Gaussian
    applied in place (no second (nmax+1) x len(x) array).  Stable to high
    degree, unlike evaluating the monomial coefficients.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    mu0 = 2.0**kappa * math.gamma(kappa + 0.5)
    b = np.sqrt((np.arange(1, nmax + 2) + 2.0 * kappa * (np.arange(1, nmax + 2) % 2)) / 2.0)
    r_prev = np.full_like(x, 1.0 / math.sqrt(mu0))
    out[0] = r_prev
    if nmax >= 1:
        r = x * r_prev / b[0]
        out[1] = r
        for n in range(1, nmax):
            r, r_prev = (x * r - b[n - 1] * r_prev) / b[n], r
            out[n + 1] = r
    out *= np.exp(-0.5 * x * x)
    return out


# ---------------------------------------------------------------------------
# serialization


def basis_to_dict(basis: HermiteBasis) -> dict:
    payload = {
        "format": "dunklriesz-basis-v1",
        "group": basis.rs.name,
        "dim": basis.rs.dim,
        "positive_roots": basis.rs.positive_roots.tolist(),
        "multiplicity": basis.rs.multiplicity.tolist(),
        "degree": basis.N,
        "arithmetic": "exact" if basis.exact else "float",
        "constants": {
            "c_kappa": basis.c_kappa,
            "m_kappa": basis.m_kappa,
            "gamma": basis.gamma,
        },
        "indices": [list(n) for n in basis.indices],
        "norms": [float(v) for v in basis.norms],
        "phi": [_poly_dict(p) for p in _normalized(basis.psi, basis.norms)],
        "H": [_poly_dict(p) for p in basis.H],
    }
    payload["sha256"] = _payload_digest(payload)
    return payload


def _poly_dict(p: Polynomial) -> dict:
    return {",".join(map(str, e)): float(c) for e, c in sorted(p.terms.items())}


def _payload_digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "sha256"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def basis_from_dict(payload: dict) -> HermiteBasis:
    if payload.get("format") != "dunklriesz-basis-v1":
        raise BasisChecksum("unrecognized basis file format")
    if payload.get("sha256") != _payload_digest(payload):
        raise BasisChecksum("basis file failed checksum validation")
    rs = root_system(roots=payload["positive_roots"], multiplicity=payload["multiplicity"])
    rs.name = payload["group"]
    dim = payload["dim"]
    indices = [tuple(n) for n in payload["indices"]]
    H = [_poly_from_dict(dim, d) for d in payload["H"]]
    consts = payload["constants"]
    return HermiteBasis(
        rs=rs,
        N=payload["degree"],
        exact=False,
        indices=indices,
        index_pos={n: i for i, n in enumerate(indices)},
        psi=[_poly_from_dict(dim, d) for d in payload["phi"]],
        H_raw=H,
        H=H,
        norms=[1.0] * len(indices),
        c_kappa=consts["c_kappa"],
        m_kappa=consts["m_kappa"],
        gamma=consts["gamma"],
    )


def _poly_from_dict(dim: int, d: dict) -> Polynomial:
    return Polynomial(dim, {tuple(int(s) for s in k.split(",")): v for k, v in d.items()})


def save_basis(basis: HermiteBasis, path: str):
    """Write the basis file through a temporary file in the same directory,
    so a concurrent reader sees the old file or the whole new one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(basis_to_dict(basis), fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_basis(path: str) -> HermiteBasis:
    with open(path) as fh:
        return basis_from_dict(json.load(fh))
