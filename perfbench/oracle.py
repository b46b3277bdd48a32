"""Reference values and properties computed apart from the program.

Everything here uses mpmath and numpy only; nothing imports dunklriesz.
Each ``check_*`` function returns a list of problems (empty when the
program's values are right), so a test can feed it a perturbed value and
see it rejected.

Conventions shared with the program's README: roots are normalized to
|alpha|^2 = 2, w_kappa(x) = prod_{alpha in R+} |<alpha, x>|^(2 kappa_alpha),
c_kappa = int e^(-|x|^2/2) w_kappa(x) dx, and the Dunkl-Hermite heat kernel is

    k_t(x, y) = c_kappa^-1 (sinh 2t)^(-gamma-d/2) e^(-coth(2t)(|x|^2+|y|^2)/2)
                E_kappa(x / sinh 2t, y).
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

DPS = 25  # digits; the rank-one kernel at w << 0 cancels about log10|w| of them


# ---------------------------------------------------------------------------
# rank one


def dunkl_1d(kappa: float, w) -> mp.mpf:
    """E_kappa(w) = 0F1(; k+1/2; w^2/4) + w/(2k+1) 0F1(; k+3/2; w^2/4)."""
    with mp.workdps(DPS):
        w = mp.mpf(w)
        q = w * w / 4
        k = mp.mpf(kappa)
        return mp.hyp0f1(k + 0.5, q) + w / (2 * k + 1) * mp.hyp0f1(k + 1.5, q)


@functools.lru_cache(maxsize=None)
def c_kappa_1d(kappa: float) -> mp.mpf:
    """int_R e^(-x^2/2) |sqrt(2) x|^(2 kappa) dx, by quadrature."""
    with mp.workdps(DPS):
        k = mp.mpf(kappa)
        return 2 * mp.quad(lambda x: mp.exp(-x * x / 2) * (mp.sqrt(2) * x) ** (2 * k), [0, 1, 4, mp.inf])


def heat_1d(kappa: float, t, x, y) -> mp.mpf:
    with mp.workdps(DPS):
        t, x, y = mp.mpf(t), mp.mpf(x), mp.mpf(y)
        s = mp.sinh(2 * t)
        return (
            s ** (-(mp.mpf(kappa) + 0.5))
            * mp.exp(-mp.coth(2 * t) * (x * x + y * y) / 2)
            * dunkl_1d(kappa, x * y / s)
            / c_kappa_1d(kappa)
        )


def heat_z2d(kappas, t, x, y) -> mp.mpf:
    """Z2^d heat kernel as the product of rank-one kernels, one per axis."""
    with mp.workdps(DPS):
        out = mp.mpf(1)
        for k, xj, yj in zip(kappas, x, y):
            out *= heat_1d(k, t, xj, yj)
        return out


def riesz_1d(kappa: float, x, y) -> mp.mpf:
    """K_1(x, y) = pi^(-1/2) int_0^inf k_t(x,y) [(1 - coth 2t) x + y / sinh 2t] dt / sqrt(t),
    with t = u^2 so that dt / sqrt(t) = 2 du."""
    with mp.workdps(DPS):
        x, y = mp.mpf(x), mp.mpf(y)

        def integrand(u):
            if u == 0:
                return mp.mpf(0)
            t = u * u
            s = mp.sinh(2 * t)
            bracket = (1 - mp.coth(2 * t)) * x + y / s
            return 2 * heat_1d(kappa, t, x, y) * bracket

        val = mp.quad(integrand, [0, 0.1, 0.25, 0.5, 1, 1.5, 2.5, 4, mp.inf])
        return val / mp.sqrt(mp.pi)


def check_close(label: str, got, want, rtol: float) -> list[str]:
    """Relative agreement of program values with reference values."""
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        g = float(g)
        w = float(w)
        if not (math.isfinite(g) and abs(g - w) <= rtol * abs(w)):
            problems.append(f"{label}[{i}]: program {g!r}, reference {w!r}")
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} values for {len(want)} references")
    return problems


# ---------------------------------------------------------------------------
# dihedral groups: the benchmark's own root tables


def dihedral_roots(group: str, kappa) -> tuple[np.ndarray, np.ndarray]:
    """Positive roots (|alpha|^2 = 2) and per-root multiplicities.

    a2 and i2(m): sqrt(2) (cos k pi/m, sin k pi/m), k = 0..m-1; the two
    orbits of even m are the even and the odd k.  b2: the axis roots form
    the first orbit, the diagonals (1, +-1) the second.
    """
    kap = list(np.atleast_1d(np.asarray(kappa, dtype=float)))
    if group == "b2":
        roots = np.array([[math.sqrt(2), 0.0], [0.0, math.sqrt(2)], [1.0, 1.0], [1.0, -1.0]])
        orbit = [0, 0, 1, 1]
    else:
        m = 3 if group == "a2" else int(group[3:-1])
        ang = np.arange(m) * math.pi / m
        roots = math.sqrt(2) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        orbit = [k % 2 if m % 2 == 0 else 0 for k in range(m)]
    kap = kap if len(kap) > 1 else kap * 2
    return roots, np.array([kap[o] for o in orbit])


def group_matrices(roots: np.ndarray) -> list[np.ndarray]:
    """Closure of the reflections x -> x - <alpha, x> alpha."""
    gens = [np.eye(2) - np.outer(a, a) for a in roots]
    mats = [np.eye(2)]
    frontier = list(mats)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = s @ g
                if not any(np.allclose(h, m, atol=1e-12) for m in mats):
                    mats.append(h)
                    nxt.append(h)
        frontier = nxt
    return mats


def check_orthonormal(hfun, roots, kappas, degree: int, nodes: int = 20, tol: float = 1e-9) -> list[str]:
    """int h_m h_n w_kappa dx = delta_mn by a tensor Gauss-Hermite rule.

    With integer kappa, w_kappa is a polynomial of degree 2 gamma, and
    h_m h_n w_kappa = e^(-|x|^2) P(x) with deg P <= 2 degree + 2 gamma.
    The rule with ``nodes`` points per axis is exact up to degree
    2 nodes - 1 in each variable.  ``hfun`` maps points (Q, 2) to the
    values of every h_n, shape (size, Q).
    """
    if any(k != int(k) for k in kappas):
        return ["orthonormality rule needs integer kappa"]
    deg_w = int(round(2 * sum(kappas)))
    if 2 * degree + deg_w > 2 * nodes - 1:
        return [f"Gauss-Hermite rule with {nodes} nodes is not exact at degree {2 * degree + deg_w}"]
    u, wu = np.polynomial.hermite.hermgauss(nodes)
    X = np.array([[a, b] for a in u for b in u])
    W = np.array([wa * wb for wa in wu for wb in wu])
    wk = np.prod((X @ roots.T) ** (2 * np.asarray(kappas, dtype=int)), axis=1)
    h = np.asarray(hfun(X), dtype=float)
    G = (h * (W * np.exp(np.sum(X * X, axis=1)) * wk)) @ h.T
    err = float(np.max(np.abs(G - np.eye(G.shape[0]))))
    return [] if err <= tol else [f"Gram matrix of h_n is off the identity by {err:.3e}"]


def check_dunkl_kernel_properties(E, mats, X, Y, values, probe: int, tol: float = 1e-6) -> list[str]:
    """Properties of a Dunkl kernel E on a reflection group G.

    For every row: 0 < E(x, y) <= exp(max_g <g x, y>).  For the first
    ``probe`` rows, through fresh calls of E: E(g x, g y) = E(x, y) for all g,
    E(x, y) = E(y, x) and E(0, y) = 1, to relative ``tol``.
    """
    problems = []
    values = np.asarray(values, dtype=float)
    for i, (x, y, v) in enumerate(zip(X, Y, values)):
        cap = math.exp(max(float((g @ x) @ y) for g in mats))
        if not (0.0 < v <= cap * (1.0 + tol)):
            problems.append(f"E row {i} = {v!r} outside (0, {cap!r}]")
    for i in range(min(probe, len(values))):
        x, y, v = X[i], Y[i], values[i]
        pairs = [("g", g @ x, g @ y) for g in mats] + [("swap", y, x)]
        for label, a, b in pairs:
            e = E(a, b)
            if abs(e - v) > tol * abs(v):
                problems.append(f"E row {i} {label}: {e!r} vs {v!r}")
        e0 = E(np.zeros_like(x), y)
        if abs(e0 - 1.0) > tol:
            problems.append(f"E(0, y) row {i} = {e0!r}")
    return problems


# ---------------------------------------------------------------------------
# verification reports


def check_statuses(report: dict, expected: dict, exact: bool | None) -> list[str]:
    """Every expected check is present with its documented status."""
    got = {c["name"]: c["status"] for c in report.get("checks", [])}
    problems = [
        f"check {name}: status {got.get(name)!r}, documented {want!r}"
        for name, want in expected.items()
        if got.get(name) != want
    ]
    if exact is not None and report.get("config", {}).get("exact") is not exact:
        problems.append(f"report arithmetic exact={report.get('config', {}).get('exact')!r}, wanted {exact}")
    return problems
