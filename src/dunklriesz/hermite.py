"""Dunkl bilinear pairing, orthonormal polynomial system, and the generalized
Hermite polynomials H_n / Hermite functions h_n.

Construction follows the graded structure: the pairing [p,q] = (p(T)q)(0)
vanishes between different homogeneous degrees, so Gram-Schmidt runs one
degree block at a time on the monomials in graded-lexicographic order, with
positive leading coefficients (the basis is not unique; this is the canonical
deterministic choice).  Then

    H_n = 2^|n| exp(-Laplacian/4) phi_n,
    h_n = 2^(-|n|/2) sqrt(m_kappa) e^(-|x|^2/2) H_n.

In exact mode the orthogonal system is kept unnormalized (psi_n, with exact
norms [psi_n, psi_n]); normalization happens once, when the float phi/H are
materialized.  All exact identities are ratios of field elements and never
need the square root.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .polyalg import DunklAlgebra, Polynomial, _is_zero, get_algebra
from .reflection import RootSystem, gamma, gamma_exact, root_system


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
    column.
    """
    B = len(indices)
    G = [[None] * B for _ in range(B)]
    for col, b in enumerate(indices):
        q = alg.monomial(b)
        cache = {(0,) * alg.dim: q}
        for row, a in enumerate(indices):
            G[row][col] = alg._t_power(a, q, cache).constant_term()
    return G


@dataclass(eq=False)
class HermiteBasis:
    rs: RootSystem
    N: int
    exact: bool
    indices: list
    index_pos: dict
    phi: list                       # float Polynomials, [phi_m, phi_n] = delta
    H: list                         # float Polynomials, 2^|n| e^(-Lap/4) phi_n
    norms: np.ndarray               # float [psi_n, psi_n]
    c_kappa: float
    m_kappa: float
    gamma: float
    psi_exact: list | None = None   # unnormalized orthogonal system (Surd)
    norms_exact: list | None = None
    H_raw_exact: list | None = None  # 2^|n| e^(-Lap/4) psi_n (Surd)
    gamma_exact: Fraction | None = None
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
        """h_n at x (point or batch): Gaussian-decaying orthonormal functions."""
        pos = self.position(n)
        x = np.asarray(x, dtype=float)
        Hval = self.H[pos].eval_float(x)
        g = np.exp(-0.5 * np.sum(x * x, axis=-1))
        return 2.0 ** (-0.5 * sum(n)) * math.sqrt(self.m_kappa) * g * Hval

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
    for deg in range(N + 1):
        block = _indices_of_degree(rs.dim, deg)
        G = _gram_block(alg, block)
        B = len(block)
        # Gram-Schmidt on coefficient vectors over the block monomials
        vecs = []
        for i in range(B):
            v = [alg.scalar(0)] * B
            v[i] = alg.scalar(1)
            for k in range(i):
                w, nw = vecs[k]
                # [x^i, psi_k] = sum_a w_a G[i][a]
                proj = sum((w[a] * G[i][a] for a in range(B) if not _is_zero(w[a])), alg.scalar(0))
                coef = proj / nw
                if not _is_zero(coef):
                    v = [va - coef * wa for va, wa in zip(v, w)]
            nv = _quad_form(G, v, alg)
            if exact:
                if not nv:
                    raise GramSingular(f"zero norm in exact block deg={deg}")
            elif float(nv) <= 1e-13:
                raise GramSingular(f"Gram block numerically singular at deg={deg}")
            vecs.append((v, nv))
        for (v, nv), n in zip(vecs, block):
            poly = Polynomial.zero(rs.dim)
            for a, idx in enumerate(block):
                if not _is_zero(v[a]):
                    poly = poly + alg.monomial(idx, v[a])
            psi.append(poly)
            norms.append(nv)

    # H_raw = 2^|n| e^(-Lap/4) psi_n
    quarter = Fraction(-1, 4) if exact else -0.25
    H_raw = [
        alg.exp_laplacian(p, quarter).scale(alg.scalar(2 ** sum(n)))
        for p, n in zip(psi, indices)
    ]

    norms_f = np.array([float(v) for v in norms])
    phi = [p.to_float().scale(1.0 / math.sqrt(nf)) for p, nf in zip(psi, norms_f)]
    H = [p.to_float().scale(1.0 / math.sqrt(nf)) for p, nf in zip(H_raw, norms_f)]

    g = gamma(rs)
    return HermiteBasis(
        rs=rs,
        N=N,
        exact=exact,
        indices=indices,
        index_pos=index_pos,
        phi=phi,
        H=H,
        norms=norms_f,
        c_kappa=ck,
        m_kappa=2.0 ** (g + rs.dim / 2.0) / ck,
        gamma=g,
        psi_exact=psi if exact else None,
        norms_exact=norms if exact else None,
        H_raw_exact=H_raw if exact else None,
        gamma_exact=gamma_exact(rs) if exact else None,
    )


def _quad_form(G, v, alg):
    total = alg.scalar(0)
    B = len(v)
    for i in range(B):
        if _is_zero(v[i]):
            continue
        for j in range(B):
            if not _is_zero(v[j]):
                total = total + v[i] * G[i][j] * v[j]
    return total


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
    """
    axis_k = rs.axis_kappas()
    if axis_k is not None:
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


def hermite_function_eval(basis: HermiteBasis, n, x) -> float:
    """h_n(x); raises IndexOutOfTruncation for |n| > N."""
    val = basis.hermite_function(n, np.asarray(x, dtype=float))
    return float(val)


def hermite_functions_1d(kappa: float, nmax: int, x) -> np.ndarray:
    """h_0..h_nmax for the rank-one system at points x, shape (nmax+1, len(x)).

    Three-term recurrence for the orthonormal polynomials r_n with weight
    2^kappa |u|^(2 kappa) e^(-u^2) (the measure w_kappa e^(-|x|^2) of the
    sqrt(2)-normalized Z2 root), then h_n = e^(-x^2/2) r_n.  Stable to high
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
    return out * np.exp(-0.5 * x * x)


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
        "norms": basis.norms.tolist(),
        "phi": [_poly_dict(p) for p in basis.phi],
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
    phi = [_poly_from_dict(dim, d) for d in payload["phi"]]
    H = [_poly_from_dict(dim, d) for d in payload["H"]]
    consts = payload["constants"]
    return HermiteBasis(
        rs=rs,
        N=payload["degree"],
        exact=False,
        indices=indices,
        index_pos={n: i for i, n in enumerate(indices)},
        phi=phi,
        H=H,
        norms=np.array(payload["norms"], dtype=float),
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
