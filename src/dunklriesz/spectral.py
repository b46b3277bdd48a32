"""Quadrature for the weighted measure, Hermite coefficient analysis and
synthesis, and matrix realizations of the ladder, inverse-square-root, and
Riesz operators on the truncated basis.

Operator matrices are built from the exact conjugation identities

    delta_j (e^{-|x|^2/2} H) = e^{-|x|^2/2} T_j H,
    delta_j^*(e^{-|x|^2/2} H) = e^{-|x|^2/2} (2 x_j H - T_j H),

followed by re-expansion in the H basis through the pairing.  delta_j maps
the degree-|n| shell to |n|-1 exactly; the raising variant loses the top
shell to truncation, which is flagged, not fatal.  When the basis is exact
the matrix entries are single roundings of exact field elements, and
delta/delta* transpose-adjointness holds exactly before rounding.

An entry pairs the homogeneous psi_m of degree |m| with e^{Lap/4} P_n, and
under [p, q] = (p(T) q)(0) homogeneous parts of different degree are
orthogonal: T^e with |e| = |m| sends every monomial of lower degree to 0, and
none of P_n is of higher degree.  So only the degree-|m| part of P_n is
built.  e^{Lap/4} adds only lower degrees and is not applied; for delta_j^*
the T_j H part of 2 x_j H - T_j H is of degree |n| - 1 < |m| and is not
computed.

On an exact basis the pairings are per-degree block products.  With G_k the
Gram block of degree k, Psi_k the coefficients of the psi_m of shell k and
H_k those of the top shells of H_raw_n, W_k = Psi_k^T G_k comes once per
basis and block from the build's Gram-Schmidt, and

    S_low   on (k - 1, k) = W_{k-1} M_j^(k) H_k,
    S_raise on (k + 1, k) = W_{k+1} (2 X_j) H_k,

with M_j^(k) the matrix of T_j from block k to block k - 1 and X_j the shift
of multiplication by x_j.  Each factor is carried in integers over one
denominator per row or column (qfield), and each entry is turned once into
the exact rational, so the route does not move a bit.  A float basis keeps
the polynomial route (T_j H_top paired with psi_m by T-power chains): the
block route sums in another order, which moves float bits that the tests
and the verify digests pin, for no gain in accuracy (both routes are
within 1.5e-14 of the exact delta_j on a2, b2 and i2(6)).  The polynomial
route is also the test oracle for the block products.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hermite import HermiteBasis
from .polyalg import Polynomial, get_algebra
from .qfield import apply_columns, over_one_denominator
from .reflection import RootSystem, weight


class OrderTooSmall(ValueError):
    pass


class MomentMatrixSingular(ArithmeticError):
    """Moment determinant vanished; impossible for kappa >= 0."""


class AdjointMismatch(ArithmeticError):
    """Exact delta_j and delta_j^* entries disagree at one index pair."""

    def __init__(self, m, n, S_low, S_raise):
        super().__init__(f"delta_j / delta_j^* entries differ at m={m}, n={n}: "
                         f"{S_low!r} != {S_raise!r}")
        self.m, self.n, self.S_low, self.S_raise = m, n, S_low, S_raise


@dataclass
class QuadratureRule:
    """Nodes/weights targeting integrands against w_kappa(x) e^{-|x|^2} dx."""

    nodes: np.ndarray      # (Q, d)
    weights: np.ndarray    # (Q,)
    description: str

    @property
    def size(self) -> int:
        return self.weights.size

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))


def gauss_generalized_hermite(kappa: float, order: int):
    """Gauss rule for the weight |u|^(2 kappa) e^{-u^2} on the line.

    Golub-Welsch on the Jacobi matrix; the recurrence coefficients for this
    weight are b_n^2 = (n + 2 kappa [n odd]) / 2, the matrix its (finite,
    positive) moments m_{2k} = Gamma(k + kappa + 1/2) determine.  Exact for
    polynomials up to degree 2*order - 1.  scipy.linalg is imported here, the
    one caller of eigh_tridiagonal, so a command that builds no such rule does
    not load it.
    """
    if order < 1:
        raise OrderTooSmall("quadrature order must be >= 1")
    if kappa < 0:
        raise MomentMatrixSingular("negative kappa outside the admissible range")
    from scipy.linalg import eigh_tridiagonal

    n = np.arange(1, order)
    b = np.sqrt((n + 2.0 * kappa * (n % 2)) / 2.0)
    nodes, vecs = eigh_tridiagonal(np.zeros(order), b)
    m0 = math.gamma(kappa + 0.5)
    weights = m0 * vecs[0, :] ** 2
    return nodes, weights


def quadrature_rule(rs: RootSystem, order: int) -> QuadratureRule:
    """Tensor rule for integrands against w_kappa(x) e^{-|x|^2} dx.

    Z2^d: per-axis generalized Gauss rules (weights absorb the 2^kappa_j
    factors the sqrt(2)-normalized roots put into w_kappa); exact for
    polynomial integrands of degree <= 2*order - 1 per axis.  Other groups:
    tensor Gauss-Hermite with w_kappa multiplied into the weights (accuracy
    then depends on the smoothness of w_kappa).
    """
    axis_k = rs.axis_kappas()
    if axis_k is not None:
        axes = [gauss_generalized_hermite(axis_k[j], order) for j in range(rs.dim)]
        scale = float(np.prod(2.0**axis_k))
        desc = f"tensor generalized Gauss-Hermite, order {order}"
    else:
        axes = [gauss_generalized_hermite(0.0, order) for _ in range(rs.dim)]
        scale = 1.0
        desc = f"tensor Gauss-Hermite x explicit weight, order {order}"
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    w = axes[0][1]
    for j in range(1, rs.dim):
        w = np.outer(w, axes[j][1]).ravel()
    w = w * scale
    if axis_k is None:
        w = w * weight(rs, nodes)
    return QuadratureRule(nodes=nodes, weights=np.asarray(w, dtype=float), description=desc)


@dataclass
class SpectralVector:
    """Coefficients <f, h_n> over the truncated basis."""

    basis: HermiteBasis
    values: np.ndarray

    def as_dict(self) -> dict:
        return {
            ",".join(map(str, n)): float(v)
            for n, v in zip(self.basis.indices, self.values)
        }

    @staticmethod
    def from_dict(basis: HermiteBasis, d: dict) -> "SpectralVector":
        vals = np.zeros(basis.size)
        for key, v in d.items():
            vals[basis.position(tuple(int(s) for s in key.split(",")))] = v
        return SpectralVector(basis, vals)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass
class OperatorMatrix:
    """Dense operator on the truncated Hermite-coefficient space."""

    basis: HermiteBasis
    values: np.ndarray
    label: str = ""
    leaky_top_shell: bool = False

    def apply(self, v: SpectralVector) -> SpectralVector:
        return SpectralVector(self.basis, self.values @ v.values)

    def restrict_columns(self, max_order: int) -> np.ndarray:
        cols = [i for i, n in enumerate(self.basis.indices) if sum(n) <= max_order]
        return self.values[:, cols]

    def to_csv(self, path: str, tol: float = 0.0):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["row", "col", "value"])
            for i in range(self.values.shape[0]):
                for j in range(self.values.shape[1]):
                    if abs(self.values[i, j]) > tol:
                        wr.writerow([i, j, repr(self.values[i, j])])


def analyze(basis: HermiteBasis, rule: QuadratureRule, f) -> SpectralVector:
    """Hermite coefficients <f, h_n>_kappa by quadrature.

    f must be evaluable on the rule's nodes ((Q, d) array in, (Q,) out; a
    scalar-only callable is applied pointwise).  The rule integrates against
    w_kappa e^{-|x|^2}, so the integrand is f * h_n * e^{+|x|^2}.
    """
    nodes = rule.nodes
    try:
        fv = np.asarray(f(nodes), dtype=float)
        if fv.shape != (nodes.shape[0],):
            raise TypeError
    except TypeError:
        fv = np.array([float(f(p)) for p in nodes])
    boost = np.exp(np.sum(nodes**2, axis=-1) / 2.0)
    hmat = basis.hermite_function_matrix(nodes)  # (size, Q): includes e^{-|x|^2/2}
    coeffs = hmat * boost[None, :] @ (rule.weights * fv * boost)
    # note: h_n e^{|x|^2} = (h_n e^{|x|^2/2}) e^{|x|^2/2}; split the boost so
    # neither factor overflows before the Gaussian weight cancels it
    return SpectralVector(basis, coeffs)


def synthesize(basis: HermiteBasis, v: SpectralVector, x):
    """sum_n v_n h_n(x) at a point or batch (..., d)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    hmat = basis.hermite_function_matrix(pts)
    out = v.values @ hmat
    return float(out[0]) if squeeze else out


def heat_apply(basis: HermiteBasis, t: float, v: SpectralVector) -> SpectralVector:
    """e^{-t L} on coefficients: multiply by e^{-t(2|n| + 2 gamma + d)}."""
    if t < 0:
        raise ValueError("heat semigroup needs t >= 0")
    return SpectralVector(basis, np.exp(-t * basis.eigenvalues()) * v.values)


def inv_sqrt_apply(basis: HermiteBasis, v: SpectralVector) -> SpectralVector:
    """L^{-1/2} on coefficients: multiply by (2|n| + 2 gamma + d)^{-1/2}."""
    return SpectralVector(basis, basis.eigenvalues() ** -0.5 * v.values)


def _pairings(basis: HermiteBasis, j: int, variant: str):
    """(row, col, S) with S = [psi_m, e^{Lap/4} P_n] on the target shell of
    each column n, in the basis's own scalars: P_n = T_j H_raw_n ("lower",
    |m| = |n| - 1) or 2 x_j H_raw_n - T_j H_raw_n ("raise", |m| = |n| + 1;
    the top shell has no target inside the truncation).  Column by column,
    and within a column by row.

    psi_m is homogeneous of degree |m|, so S reads only the degree-|m| part Q
    of e^{Lap/4} P_n.  The Laplacian lowers degree by 2, so Q is the
    degree-|m| part of P_n: T_j H_top, or 2 x_j H_top, with H_top the
    degree-|n| terms of H_raw_n (T_j H_raw_n has degree |n| - 1).

    An exact basis takes the block products of _block_pairings.  A float basis
    takes the polynomial route below, which applies T_j to H_top and pairs
    psi_m with Q by T-power chains, in the order that fixes its float bits.
    """
    if basis.exact:
        yield from _block_pairings(basis, j, variant)
        return
    alg = get_algebra(basis.rs, basis.exact)
    xj = alg.variable(j)
    shells: dict[int, list[int]] = {}
    for i, n in enumerate(basis.indices):
        shells.setdefault(sum(n), []).append(i)
    for col, n in enumerate(basis.indices):
        deg = sum(n)
        target = deg - 1 if variant == "lower" else deg + 1
        if target not in shells:
            continue
        H_top = Polynomial(basis.rs.dim, {e: c for e, c in basis.H_raw[col].terms.items() if sum(e) == deg})
        Q = alg.dunkl(j, H_top) if variant == "lower" else xj * H_top * alg.scalar(2)
        cache = {(0,) * basis.rs.dim: Q}
        for row in shells[target]:
            yield row, col, alg.apply_poly_operator(basis.psi[row], Q, cache).constant_term()


def _block_pairings(basis: HermiteBasis, j: int, variant: str):
    """The exact pairings of _pairings as per-degree block products:

        S_low   on (k - 1, k) = W_{k-1} M_j^(k) H_k,
        S_raise on (k + 1, k) = W_{k+1} (2 X_j) H_k,

    with W_k = Psi_k^T G_k and H_k from _pairing_blocks, M_j^(k) the matrix
    of T_j from block k to block k - 1 and X_j the shift x^b -> x^(b + u_j),
    both taken by columns.  Every factor is an integer vector over one
    denominator (a row of W, a column of H, the whole M_j^(k)), so an entry is
    one integer dot product over the product of three denominators, turned
    once into the same Fraction, or into the int 0 that constant_term() gives
    for a zero pairing.  The two variants are computed apart, so the adjoint
    check compares two independent products.
    """
    alg = get_algebra(basis.rs, True)
    blocks = _pairing_blocks(basis)
    for k, (shell, block, _, H) in enumerate(blocks):
        target = k - 1 if variant == "lower" else k + 1
        if not 0 <= target < len(blocks):
            continue
        rows, tblock, W, _ = blocks[target]
        pos = {c: i for i, c in enumerate(tblock)}
        if variant == "lower":
            columns, den = alg.dunkl_columns(j, block, pos)
        else:
            columns, den = [[(pos[b[:j - 1] + (b[j - 1] + 1,) + b[j:]], 2)] for b in block], 1
        for col, (h, h_den) in zip(shell, H):
            Q = apply_columns(columns, h, len(tblock))
            for row, (w, w_den) in zip(rows, W):
                S = sum(map(operator.mul, w, Q))
                yield row, col, Fraction(S, w_den * den * h_den) if S else 0


def _pairing_blocks(basis: HermiteBasis) -> list:
    """Per degree k: (positions of shell k, block monomials, W_k, H_k), with
    W_k = Psi_k^T G_k by rows m, as hermite's Gram-Schmidt left it, and H_k
    by columns n, the top-shell coefficients of H_raw_n; both are integer
    vectors over one denominator (qfield.over_one_denominator).  Built once
    per basis."""
    if "pairing_blocks" not in basis._cache:
        shells: dict[int, list[int]] = {}
        for i, n in enumerate(basis.indices):
            shells.setdefault(sum(n), []).append(i)
        blocks = []
        for k, W in enumerate(basis._cache["w"]):
            shell = shells[k]
            block = [basis.indices[i] for i in shell]
            H = [over_one_denominator([basis.H_raw[n].terms.get(b, 0) for b in block]) for n in shell]
            blocks.append((shell, block, W, H))
        basis._cache["pairing_blocks"] = blocks
    return basis._cache["pairing_blocks"]


def delta_matrix(basis: HermiteBasis, j: int, variant: str = "lower") -> OperatorMatrix:
    """Matrix of delta_j ("lower") or delta_j^* ("raise") on {h_n}: the entry
    at (m, n) is factor 2^{-|m|} S / sqrt(norm_m norm_n) with the pairings S
    of _pairings and factor = 2^{-+1/2} between neighboring shells.  The
    raising variant always leaks its top shell.
    """
    if variant not in ("lower", "raise"):
        raise ValueError("variant must be 'lower' or 'raise'")
    key = ("delta", j, variant)
    label = f"delta{'*' if variant == 'raise' else ''}_{j}"
    leaky = variant == "raise"
    # the cache keeps the values only: an OperatorMatrix points back to the
    # basis, and a cycle would keep the basis alive until a full gc pass
    if key not in basis._cache:
        M = np.zeros((basis.size, basis.size))
        factor = 2.0**0.5 if leaky else 2.0**-0.5
        norms = [float(v) for v in basis.norms]
        for row, col, S in _pairings(basis, j, variant):
            M[row, col] = (factor * 2.0 ** -sum(basis.indices[row]) * float(S)
                           / math.sqrt(norms[row] * norms[col]))
        basis._cache[key] = M
    return OperatorMatrix(basis, basis._cache[key], label=label, leaky_top_shell=leaky)


def riesz_matrix(basis: HermiteBasis, j: int, adjoint: bool = False) -> OperatorMatrix:
    """R_j = delta_j L^{-1/2} (or R_j^* = delta_j^* L^{-1/2})."""
    D = delta_matrix(basis, j, "raise" if adjoint else "lower")
    lam = basis.eigenvalues() ** -0.5
    return OperatorMatrix(
        basis,
        D.values * lam[None, :],
        label=f"riesz{'*' if adjoint else ''}_{j}",
        leaky_top_shell=D.leaky_top_shell,
    )


def operator_norm(M: OperatorMatrix | np.ndarray, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Largest singular value by power iteration on M^T M."""
    A = M.values if isinstance(M, OperatorMatrix) else np.asarray(M, dtype=float)
    if A.size == 0 or not np.any(A):
        return 0.0
    B = A.T @ A
    v = np.ones(B.shape[0]) / math.sqrt(B.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - lam) <= tol * max(1.0, nw):
            lam = nw
            break
        lam = nw
    return math.sqrt(lam)


def exact_adjoint_residual(basis: HermiteBasis, j: int):
    """Exact-field check that delta_j and delta_j^* are mutual adjoints: the
    lowering pairing S_low[m, n] equals the raising one S_raise[n, m].

    Returns the number of entry pairs compared; raises AdjointMismatch with
    the offending indices and values when the exact identity fails.  Exact
    bases only.
    """
    if not basis.exact:
        raise ValueError("exact adjoint check requires an exact basis")
    raised = {(row, col): S for row, col, S in _pairings(basis, j, "raise")}
    checked = 0
    for row, col, S_low in _pairings(basis, j, "lower"):
        S_raise = raised[col, row]
        if S_low != S_raise:
            raise AdjointMismatch(basis.indices[row], basis.indices[col], S_low, S_raise)
        checked += 1
    return checked
