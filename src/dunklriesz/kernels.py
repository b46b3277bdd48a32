"""Dunkl kernel, Dunkl-Hermite heat kernels, Gaussian translations, and the
Riesz transform kernel.

Evaluator dispatch
------------------
* rank one / Z2^d: the one-dimensional kernel E_kappa(u, v) depends only on
  w = u*v and splits into even/odd modified-Bessel parts,

      E(w) = Gamma(k+1/2) (|w|/2)^(1/2-k) [ I_{k-1/2}(|w|) + sgn(w) I_{k+1/2}(|w|) ],

  which is evaluated in log scale, in three bands of |w| (DLMF 10.25.2 and
  10.40.1 give the two ends without a Bessel routine):
  - |w| < 1: log1p of the defining power series, 18 terms; tiny |w| keeps
    full relative accuracy;
  - |w| past a switch of the order (148 at kappa = 1/2, 22 at integer
    kappa, where the sum terminates): an 8-term Hankel sum, with its own
    coefficients on the minus branch, so I_nu - I_{nu+1} never cancels;
  - in between: the exponentially scaled Bessel pair, scipy.special.i0e/i1e
    at kappa = 1/2 (order nu = 0), where the Cephes Chebyshev routines are
    about ten times faster, and scipy.special.ive for every other kappa.
  The pair costs about 60 ns an element per function, while each sum is a
  numpy Horner loop costing tens of microseconds per call.  So only batches
  of at least BAND_MIN = 512 elements, and every block of the Riesz panels,
  take the three bands; smaller batches and 0-d inputs keep the Bessel pair
  up to max(1e5, switch) and the Hankel sum past it.  Where the scaled
  pair does not resolve (w = 0, ive's underflow at large kappa or its NaN
  below kappa = 1/2), log E and E'/E take the power series on every route,
  within 1e-12 of mpmath up to kappa = 130 (c_kappa of z2 overflows past
  kappa = 134).  Both routes stay finite and accurate for the arguments
  ~ x*y/sinh(2t) -> +-infinity that the Riesz time integral produces; the
  spec'd power-series recursion (dunkl_kernel_1d) is kept as the
  independent cross-check.
* any other reflection group: Mehler inversion through a built Hermite basis.

Heat kernel
-----------
    k_t(x,y) = c_kappa^{-1} (sinh 2t)^(-gamma-d/2)
               e^{-coth(2t)(|x|^2+|y|^2)/2} E_kappa(x/sinh 2t, y).

The prefactor is the one forced by substituting r = e^{-2t} into the Mehler
formula ((1-r^2)/r = 2 sinh 2t) and is the only choice that reduces to the
classical Hermite kernel at kappa = 0.  `prefactor="printed"` switches to the
m_kappa variant, which is off by exactly 2^(gamma+d/2); the verification
suite asserts that it fails the spectral-series comparison.

Near the orbit the exponent and log E, each about q/(2 sinh 2t) with
q = |x|^2 + |y|^2, cancel.  So Z2^d takes, with md^2 = sum_j (|x_j| - |y_j|)^2,
w_j = x_j y_j / sinh 2t and tanh t = (cosh 2t - 1)/sinh 2t, the equal form

    log k_t = -log c_kappa - (gamma + d/2) log sinh 2t - md^2 / (2 sinh 2t)
              - q tanh(t) / 2 + sum_j log(e^{-|w_j|} E_kappa(w_j)),

whose terms after the second are all <= 0, and likewise log tau_x(e^{-c|.|^2})(-y)
= -c md^2 + sum_j log(e^{-|v_j|} E_kappa(v_j)), v_j = 2c x_j y_j.  Both come
from the t-free pair terms md^2, q and x_j y_j, symmetric in (x, y).

Riesz kernel
------------
    K_j(x,y) = pi^(-1/2) * int_0^inf k_t(x,y) [ (1-coth 2t) x_j
               + y_j / sinh 2t ] dt / sqrt(t),

absolutely convergent off the orbit of x, and evaluated on Z2^d only: the
Mehler heat kernel of other groups cannot reach t -> 0, where its argument
x / sinh 2t has no bound.  One panel evaluator, vectorized over point
batches, serves every caller: a single pair (riesz_kernel) is the batch of
one.  It takes the trapezoid rule on one fixed lattice in v = log t
(LATTICE_STEP) up to t_max = 1 + 60/(2 gamma + d + 2), where the integrand
decays double-exponentially at both ends and the rule converges
geometrically (Trefethen & Weideman, SIAM Review 56, 2014).

The panel evaluator accumulates two time integrals that do not depend on j,

    A = pi^(-1/2) int k_t (1 - coth 2t) dt / sqrt(t),
    B = pi^(-1/2) int k_t / sinh 2t dt / sqrt(t),

so K_j(x,y) = A x_j + B y_j and, k_t being symmetric, K_j(y,x) =
A y_j + B x_j: one heat evaluation per node and row serves every axis and
both orientations (riesz_kernel_both).

The panel evaluator skips, at each node, the rows whose heat kernel is
exactly 0.0.  The first three terms of log k_t above bound it, since the
others are <= 0:

    log k_t(x,y) <= -log c_kappa - (gamma + d/2) log sinh 2t - md^2 / (2 sinh 2t).

Once this bound is below -745.2, exp returns exactly 0.0 and the row would
add exactly +-0.0 to its sum.  With the rows sorted by md^2, the rows left
at a node are a prefix of the batch.  Consecutive nodes are evaluated
together, as one nodes x rows block as wide as the longest prefix among
them (PANEL_BLOCK_ELEMS); a row past its own node's prefix is exactly 0.0
there too.  The panels take log E by band for every element, whatever the
size of the block (_log_e_bands), and add the nodes in order on a lattice
that every batch shares, so a row's panel sums are the same bits alone as
inside any batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, i0e, i1e, ive

from .hermite import HermiteBasis, c_kappa
from .reflection import gamma


class SeriesNonConvergence(ArithmeticError):
    pass


class TruncationTooCoarse(ArithmeticError):
    pass


class WrongGroup(ValueError):
    pass


class OrbitTooClose(ValueError):
    """Riesz kernel requested at orbit distance SEPARATION_FLOOR or less."""


@dataclass(frozen=True)
class KernelConfig:
    """The settable knobs of the kernel evaluators.

    Only the Mehler r cap of the general-group Dunkl and heat kernels is
    settable.  Tail and quadrature tolerances, the panel plans and the Riesz
    separation floor are module constants next to the evaluator that reads
    them.
    """

    mehler_r_cap: float = 0.5         # per-point r = min(cap, 1/(1+|x||y|))

    def __post_init__(self):
        if not 0.0 < self.mehler_r_cap < 1.0:
            raise ValueError("mehler_r must lie in (0, 1)")


DEFAULT_CONFIG = KernelConfig()


# ---------------------------------------------------------------------------
# rank-one Dunkl kernel

SERIES_TAIL_TOL = 1e-12


def dunkl_kernel_1d(kappa: float, u: float, v: float, terms: int = 64) -> float:
    """E_kappa(u, v) for the rank-one system by the defining power series.

    a_0 = 1, a_n = v a_{n-1} / (n + 2 kappa [n odd]); returns the sum of a_n u^n
    to n = terms.  Raises SeriesNonConvergence when the tail bound past it
    exceeds tolerance (large |u v|); the Bessel route has no such cap.
    """
    total, term = 1.0, 1.0
    w = u * v
    for n in range(1, terms + 1):
        term = term * w / (n + 2.0 * kappa * (n % 2))
        total += term
    # geometric tail bound once |w| < n/2
    n = terms + 1
    if abs(w) > n / 2.0:
        raise SeriesNonConvergence(f"|uv|={abs(w):.3g} too large for series truncation {terms}")
    tail = abs(term) * (abs(w) / n) / (1.0 - abs(w) / n)
    if tail > SERIES_TAIL_TOL * max(1.0, abs(total)):
        raise SeriesNonConvergence(f"series tail {tail:.3g} above tolerance")
    return total


# The bands of log E and E'/E (see the module docstring).  BAND_MIN is where
# a batch of Riesz-panel arguments runs as fast on the three bands as on the
# Bessel pair alone (between 128 and 512 elements, measured); below it the
# fixed cost of the Horner loops is not won back.
_ASYMPT_SWITCH = 1e5
BAND_MIN = 512
SERIES_TERMS = 18                     # a_1..a_18 on |w| < 1: a_19 < 1/19! < 1e-17
HANKEL_TERMS = 8                      # z^1..z^8 after the leading 1
HANKEL_TOL = 2.0**-56                 # the first omitted Hankel term, relative


def _hankel_a(nu: Fraction, k: int) -> Fraction:
    """a_k(nu) of e^{-x} I_nu(x) ~ (2 pi x)^{-1/2} sum_k (-1)^k a_k(nu) x^{-k}
    (DLMF 10.40.1); 0 for k > nu + 1/2 at half-integer nu."""
    p = Fraction(1)
    for m in range(1, k + 1):
        p *= (4 * nu * nu - (2 * m - 1) ** 2) / Fraction(8 * m)
    return p


@dataclass(frozen=True)
class _Hankel:
    """The Hankel sums of one kappa, nu = kappa - 1/2, in z = 1/x:

        e^{-x} (I_nu + I_{nu+1}) = 2 (2 pi x)^{-1/2} (1 + z plus(z))
        e^{-x} (I_nu - I_{nu+1}) = kappa z (2 pi x)^{-1/2} (1 + z minus(z))
        e^{-x} I_{nu+1}          = (2 pi x)^{-1/2} (1 + z upper(z))

    with polynomials of degree HANKEL_TERMS - 1.  The minus coefficients
    come from a_k(nu) - a_k(nu+1) in exact rational arithmetic, so the minus
    branch does not cancel.  Plus and minus ride as the real and imaginary
    parts of one complex coefficient tuple `pm`, so one Horner loop of half
    the numpy calls sums both.  `switch` is the integer x past which the
    first omitted term of each sum, and the e^{-2x} part that the sums leave
    out, are below HANKEL_TOL.  `log_c` holds the x-free terms of log E on
    the plus and on the minus branch.
    """

    pm: tuple
    upper: tuple
    switch: float
    log_c: tuple


@functools.cache
def _hankel(kappa: float) -> _Hankel:
    nu = Fraction(kappa) - Fraction(1, 2)
    k_frac = Fraction(kappa)

    def row(k):  # the z^k coefficient of plus, minus and upper
        sgn = (-1) ** k
        lo, hi = _hankel_a(nu, k), _hankel_a(nu + 1, k)
        return (sgn * (lo + hi) / 2,
                sgn * (_hankel_a(nu + 1, k + 1) - _hankel_a(nu, k + 1)) / k_frac,
                sgn * hi)

    rows = [row(k) for k in range(1, HANKEL_TERMS + 2)]
    n = HANKEL_TERMS + 1                   # the first omitted power
    switch = max([1.0] + [(abs(float(c)) / HANKEL_TOL) ** (1.0 / n) for c in rows[-1] if c])
    # e^{-x} I_nu leaves out a part of relative size e^{-2x}, up to 2x/kappa
    # times that on the minus branch
    while 2.0 * switch * math.exp(-2.0 * switch) > HANKEL_TOL * min(kappa, 1.0):
        switch += 0.5
    pm = tuple(complex(float(p), float(m)) for p, m, _ in rows[:-1])
    upper = tuple(float(u) for _, _, u in rows[:-1])
    # log E = log_c - p log x + x + log1p(z h(z)), p = kappa (plus), kappa + 1 (minus)
    common = math.lgamma(kappa + 0.5) - (0.5 - kappa) * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
    return _Hankel(pm, upper, float(math.ceil(switch)),
                   (common + math.log(2.0), common + math.log(kappa)))


def _hankel_past(kappa: float, size: int) -> float:
    """The |w| past which log E and E'/E of an input of `size` elements
    take the Hankel sums."""
    switch = _hankel(kappa).switch
    return switch if size >= BAND_MIN else max(_ASYMPT_SWITCH, switch)


def _horner1(coeffs, z):
    """z (c_1 + z (c_2 + ...)), the sum that follows the leading 1."""
    r = coeffs[-1] * z
    for c in coeffs[-2::-1]:
        r += c
        r *= z
    return r


def _log_e_hankel(kappa: float, w: np.ndarray, scaled: bool) -> np.ndarray:
    """log E_kappa(w), less |w| if scaled, from the Hankel sums past the switch."""
    h = _hankel(kappa)
    x = np.abs(w)
    pos = w > 0
    # z = 1/x cast to complex once, not by every step of the Horner loop
    s = _horner1(h.pm, (1.0 / x).astype(complex))
    out = np.where(pos, h.log_c[0], h.log_c[1]) - (kappa + ~pos) * np.log(x)
    if not scaled:
        out += x
    out += np.log1p(np.where(pos, s.real, s.imag))
    return out


@functools.cache
def _series_coeffs(kappa: float) -> tuple:
    """a_1..a_SERIES_TERMS of E(w) = sum a_n w^n, exact until rounded."""
    a, out = Fraction(1), []
    for n in range(1, SERIES_TERMS + 1):
        a /= n + 2 * Fraction(kappa) * (n % 2)
        out.append(float(a))
    return tuple(out)


def _series(kappa: float, w, deriv: bool = False):
    """The power series of E: log E = log1p(sum a_n w^n), or with deriv
    E'/E = sum n a_n w^(n-1) / (1 + sum a_n w^n)."""
    a = _series_coeffs(kappa)
    s = _horner1(a, w)
    if not deriv:
        return np.log1p(s)
    return (a[0] + _horner1(tuple(n * c for n, c in enumerate(a[1:], 2)), w)) / (1.0 + s)


def _bessel_pair(nu: float, x):
    """(e^{-x} I_nu(x), e^{-x} I_{nu+1}(x)) for x >= 0.

    At nu = 0 (kappa = 1/2) scipy's Cephes Chebyshev routines i0e/i1e give the
    pair about ten times faster than ive, to within a few ulp of it; every
    other order goes through ive.
    """
    if nu == 0.0:
        return i0e(x), i1e(x)
    return ive(nu, x), ive(nu + 1, x)


_NORMAL_MIN = np.finfo(float).tiny


def _pair_or_series(kappa: float, w: np.ndarray, aw: np.ndarray, from_pair, from_series):
    """from_pair(w, aw, i0, i1) with the scaled Bessel pair at aw = |w| where
    it resolves: i1 a normal float (not at w = 0, nor where ive flushes to 0
    or a subnormal) and i0 finite (ive is NaN at nu < 0 and x < 2.2e-305).
    from_series(w, aw) elsewhere: there |w| < 1 up to kappa = 148 and < 4.7
    at kappa = 200, where the 18-term series still holds to rounding (at
    kappa = 300 it reaches 23, and the series is 1e-10 off)."""
    i0, i1 = _bessel_pair(kappa - 0.5, aw)
    ok = i1 >= _NORMAL_MIN
    if kappa < 0.5:
        ok &= np.isfinite(i0)
    if ok.all():
        return from_pair(w, aw, i0, i1)
    out = np.empty(w.shape)
    out[ok] = from_pair(w[ok], aw[ok], i0[ok], i1[ok])
    bad = ~ok
    out[bad] = from_series(w[bad], aw[bad])
    return out


def _log_e_bessel(kappa: float, w: np.ndarray, aw: np.ndarray, scaled: bool) -> np.ndarray:
    """log E_kappa(w) = lead + |w| + log(e^{-|w|} [I_nu + sgn(w) I_{nu+1}]),
    given aw = |w|; without the + |w| if scaled.  The power series takes
    over where the pair does not resolve (_pair_or_series).

    At kappa = 1/2 the power term (1/2 - kappa) log(|w|/2) of lead is
    identically 0 and is left out.
    """

    def from_pair(w, aw, i0, i1):
        lead = gammaln(kappa + 0.5)
        if kappa != 0.5:
            lead = lead + (0.5 - kappa) * np.log(aw / 2.0)
        return lead + (0.0 if scaled else aw) + np.log(i0 + np.sign(w) * i1)

    def from_series(w, aw):
        return _series(kappa, w) - aw if scaled else _series(kappa, w)

    return np.asarray(_pair_or_series(kappa, w, aw, from_pair, from_series))


def _log_e_bands(kappa: float, w: np.ndarray, scaled: bool) -> np.ndarray:
    """log E_kappa(w), or log(e^{-|w|} E) if scaled, with the route of each
    element set by (kappa, |w|) alone: log1p of the power series below
    |w| = 1, the Hankel sums past the switch of kappa, and the scaled Bessel
    pair in between.  Exact at kappa = 0."""
    aw = np.abs(w)
    if kappa == 0.0:
        return w - aw if scaled else w + 0.0
    near = aw < 1.0
    far = aw > _hankel(kappa).switch
    out = np.empty(w.shape)
    mid = ~far
    if near.any():
        series = _series(kappa, w[near])
        out[near] = series - aw[near] if scaled else series
        mid &= ~near
    if mid.any():
        out[mid] = _log_e_bessel(kappa, w[mid], aw[mid], scaled)
    if far.any():
        out[far] = _log_e_hankel(kappa, w[far], scaled)
    return out


def log_dunkl_kernel_1d(kappa: float, w, scaled: bool = False) -> np.ndarray:
    """log E_kappa at product argument w = u*v, vectorized; exact at kappa=0.
    scaled=True gives log(e^{-|w|} E_kappa(w)) <= 0: the bands without + |w|.

    E grows like e^w w^{-kappa} as w -> +inf and (for kappa > 0) like
    e^{|w|} |w|^{-kappa-1} as w -> -inf; both regimes stay finite in log scale.

    A batch of at least BAND_MIN elements takes the three bands of
    _log_e_bands.  Smaller and 0-d inputs take the Bessel pair up to
    max(1e5, switch) and the Hankel sums past it.
    """
    w = np.asarray(w, dtype=float)
    if kappa == 0.0 or w.size >= BAND_MIN:
        return _log_e_bands(kappa, w, scaled)
    aw = np.abs(w)
    far = aw > _hankel_past(kappa, w.size)
    if not far.any():
        return _log_e_bessel(kappa, w, aw, scaled)
    out = np.empty(w.shape)
    mid = ~far
    if mid.any():
        out[mid] = _log_e_bessel(kappa, w[mid], aw[mid], scaled)
    out[far] = _log_e_hankel(kappa, w[far], scaled)
    return out


def dlog_dunkl_kernel_1d(kappa: float, w) -> np.ndarray:
    """d/dw of log E_kappa(w), vectorized; equals (E'/E)(w).

    From the defining equation, E'(w) = E(w) - 2 kappa g(w)/w with g the odd
    part, so E'/E = 1 - (2 kappa / w) g/(f+g), from the Bessel pair where it
    resolves and from the power series where it does not (_pair_or_series).
    Past the Hankel switch (past max(1e5, switch) for inputs under
    BAND_MIN), the ratio comes from the Hankel sums: with z = 1/|w| and
    U = 1 + z upper,

        E'/E = 1 - kappa z U / (1 + z plus)    (w > 0),
        E'/E = 1 - 2 U / (1 + z minus)         (w < 0),

    so the minus branch forms no I_nu - I_{nu+1}.
    """
    w = np.asarray(w, dtype=float)
    if kappa == 0.0:
        return np.ones_like(w)
    aw = np.abs(w)
    big = aw > _hankel_past(kappa, w.size)
    mid = ~big
    out = np.empty(w.shape)

    def from_pair(w, aw, i0, i1):
        sign = np.sign(w)
        ratio = sign * i1 / (i0 + sign * i1)               # g/(f+g)
        return 1.0 - 2.0 * kappa * ratio / w

    out[mid] = _pair_or_series(kappa, w[mid], aw[mid], from_pair,
                               lambda w, aw: _series(kappa, w, deriv=True))
    if big.any():
        h = _hankel(kappa)
        wb = w[big]
        z = 1.0 / np.abs(wb)
        upper = 1.0 + _horner1(h.upper, z)
        pm = _horner1(h.pm, z)
        plus = 1.0 - kappa * z * upper / (1.0 + pm.real)
        minus = 1.0 - 2.0 * upper / (1.0 + pm.imag)
        out[big] = np.where(wb > 0, plus, minus)
    return out


def dunkl_kernel_z2d(rs_or_basis, x, y):
    """E_kappa for Z2^d as the product of per-axis rank-one kernels."""
    ev = z2_evaluator(rs_or_basis)
    if ev is None:
        raise WrongGroup("dunkl_kernel_z2d requires a Z2^d root system")
    out = np.exp(ev.log_E(x, y))
    return float(out) if np.ndim(out) == 0 else out


MEHLER_TAIL_TOL = 1e-6                # last-shell contribution, relative


def dunkl_kernel_mehler(basis: HermiteBasis, x, y, cfg: KernelConfig = DEFAULT_CONFIG) -> float:
    """E_kappa(x, y) for any group, by inverting the Mehler formula.

    With x' = (1-r^2) x / (2r):

        E(x,y) = (1-r^2)^(gamma+d/2) e^{r^2 (|x'|^2+|y|^2)/(1-r^2)}
                 sum_{|n| <= N} H_n(x') H_n(y) r^|n| / 2^|n|.

    r is chosen per point to balance the rescaled argument against tail
    decay.  Raises TruncationTooCoarse when the top degree shell still
    contributes more than MEHLER_TAIL_TOL relatively.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = min(cfg.mehler_r_cap, 1.0 / (1.0 + float(np.linalg.norm(x) * np.linalg.norm(y))))
    xp = (1.0 - r * r) / (2.0 * r) * x
    total = 0.0
    shell = 0.0
    for i, n in enumerate(basis.indices):
        Hx = basis.H[i].eval_float(xp)
        Hy = basis.H[i].eval_float(y)
        term = Hx * Hy * r ** sum(n) / 2.0 ** sum(n)
        total += term
        if sum(n) == basis.N:
            shell += abs(term)
    if shell > MEHLER_TAIL_TOL * max(abs(total), 1e-300):
        raise TruncationTooCoarse(
            f"top shell contributes {shell:.2e} vs total {total:.2e}"
        )
    pref = (1.0 - r * r) ** (basis.gamma + basis.rs.dim / 2.0)
    arg = r * r / (1.0 - r * r) * float(xp @ xp + y @ y)
    return pref * math.exp(arg) * total


def dunkl_kernel(basis: HermiteBasis, x, y, cfg: KernelConfig = DEFAULT_CONFIG) -> float:
    """E_kappa(x,y) via the best available evaluator for the basis group."""
    if z2_evaluator(basis) is not None:
        return float(dunkl_kernel_z2d(basis, x, y))
    return dunkl_kernel_mehler(basis, x, y, cfg)


# ---------------------------------------------------------------------------
# heat kernels
#
# The Z2Evaluator kernels take t (and the Gaussian width c) either as a float
# or as a 1-D array with one value per row of X and Y.  The factors that
# depend on t alone go through `math` row by row: numpy's sinh and tanh can
# differ from math's in the last ulp, and each row must equal the evaluation
# at its own float t bit for bit.


def _is_rows(v) -> bool:
    # an isinstance test, not np.ndim: the float path runs once per heat-kernel call
    return isinstance(v, np.ndarray) and v.ndim == 1


def per_row(f, t):
    """f(t) for a float t; for a 1-D array t, the array of f at each element."""
    return np.array([f(u) for u in t]) if _is_rows(t) else f(t)


def column(v):
    """A float as is; a per-row array as a column that scales (rows, d) arrays."""
    return v[:, None] if _is_rows(v) else v


def _sinh_coth2(t):
    """(sinh 2t, coth 2t), per row for a 1-D array t."""
    if _is_rows(t):
        return tuple(map(np.array, zip(*map(_sinh_coth2, t))))
    s = math.sinh(2.0 * t)
    return s, math.cosh(2.0 * t) / s


class Z2Evaluator:
    """Vectorized closed-form kernels for Z2^d, all in log scale internally."""

    def __init__(self, kappas, c_kappa: float, gamma: float):
        self.kappas = np.asarray(kappas, dtype=float)
        self.d = self.kappas.size
        self.c_kappa = c_kappa
        self.gamma = gamma

    def log_E(self, X, Y):
        return self._log_e(np.rollaxis(np.multiply(X, Y, dtype=float), -1))

    def _log_e(self, W, scaled=False):
        """sum_j log E_kappa_j(w_j), or of log(e^{-|w_j|} E), over axis 0 of W."""
        return sum(log_dunkl_kernel_1d(k, w, scaled) for k, w in zip(self.kappas, W))

    def _pairs(self, X, Y):
        """The t-free pair terms (md^2, q, x_j y_j) of the module notes, on axis 0."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        md2 = ((np.abs(X) - np.abs(Y)) ** 2).sum(-1)
        q = (X * X).sum(-1) + (Y * Y).sum(-1)
        return np.concatenate([[md2, q], np.rollaxis(X * Y, -1)])

    def _reflected_pairs(self, P, alpha):
        """The pair terms of (reflect(alpha, X), Y) from those P of (X, Y),
        for an axis root alpha: md^2 and q stay, and x_j y_j changes sign."""
        Q = P.copy()
        j = 2 + int(np.argmax(np.abs(alpha)))
        Q[j] = -Q[j]
        return Q

    def _log_front(self, s):
        """-log c_kappa - (gamma + d/2) log sinh 2t, given s = sinh 2t."""
        return -math.log(self.c_kappa) - (self.gamma + self.d / 2.0) * per_row(math.log, s)

    def _log_heat(self, t, P):
        """log k_t from pair terms P, in the non-cancelling form of the module notes."""
        s = per_row(lambda u: math.sinh(2.0 * u), t)
        return (self._log_front(s) - P[0] / (2.0 * s) - 0.5 * per_row(math.tanh, t) * P[1]
                + self._log_e(P[2:] / s, scaled=True))

    def _log_heat_block(self, t, s, front, P):
        """log k_t at every node of a block (axis 0) and every pair of P
        (axis 1), given per node t, s = sinh 2t and front = _log_front(s).
        Each element is _log_heat's at its own float t, with log E taken by
        (kappa, |w|) alone (_log_e_bands), whatever the shape of the block."""
        s = s[:, None]
        log_e = _log_e_bands(self.kappas[0], P[2] / s, True)
        for k, w in zip(self.kappas[1:], P[3:]):
            log_e += _log_e_bands(k, w / s, True)
        out = P[0] / (2.0 * s)
        np.subtract(front[:, None], out, out=out)
        out -= (0.5 * per_row(math.tanh, t))[:, None] * P[1]
        out += log_e
        return out

    def log_heat(self, t, X, Y):
        return self._log_heat(t, self._pairs(X, Y))

    def heat(self, t, X, Y):
        return np.exp(self.log_heat(t, X, Y))

    def dlog_heat_dy(self, t, X, Y, i):
        """d/dy_i of log k_t."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        s, c = _sinh_coth2(t)
        w = X[..., i] * Y[..., i] / s
        return -c * Y[..., i] + (X[..., i] / s) * dlog_dunkl_kernel_1d(self.kappas[i], w)

    def log_gaussian_translate(self, c: float, X, Y):
        """log of tau_x(e^{-c|.|^2})(-y) = e^{-c(|x|^2+|y|^2)} E(2c y, x) (module notes)."""
        return self._log_gaussian_translate(c, self._pairs(X, Y))

    def _log_gaussian_translate(self, c, P):
        """log_gaussian_translate from pair terms P."""
        return -c * P[0] + self._log_e(2.0 * c * P[2:], scaled=True)


def z2_evaluator(rs_or_basis) -> Z2Evaluator | None:
    """The closed-form Z2^d evaluator of a root system, or of a basis's root
    system (cached on the system), or None off Z2^d."""
    rs = getattr(rs_or_basis, "rs", rs_or_basis)
    if "z2eval" not in rs._cache:
        kappas = rs.axis_kappas()
        rs._cache["z2eval"] = (
            Z2Evaluator(kappas, c_kappa(rs), gamma(rs)) if kappas is not None else None
        )
    return rs._cache["z2eval"]


def heat_kernel(
    basis: HermiteBasis,
    t: float,
    x,
    y,
    cfg: KernelConfig = DEFAULT_CONFIG,
    prefactor: str = "consistent",
):
    """Dunkl-Hermite heat kernel k_t(x, y), t > 0.

    prefactor="consistent" (default) uses c_kappa^{-1} (sinh 2t)^(-gamma-d/2);
    "printed" uses m_kappa instead, which is larger by 2^(gamma+d/2) and fails
    the spectral-series consistency check (kept for the discrepancy test).
    """
    if t <= 0:
        raise ValueError("heat kernel needs t > 0")
    ev = z2_evaluator(basis)
    if ev is not None:
        val = ev.heat(t, x, y)
    else:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s, c = _sinh_coth2(t)
        E = dunkl_kernel_mehler(basis, x / s, y, cfg)
        val = (
            1.0
            / basis.c_kappa
            * s ** -(basis.gamma + basis.rs.dim / 2.0)
            * math.exp(-0.5 * c * float(x @ x + y @ y))
            * E
        )
    if prefactor == "printed":
        val = val * 2.0 ** (basis.gamma + basis.rs.dim / 2.0)
    elif prefactor != "consistent":
        raise ValueError("prefactor must be 'consistent' or 'printed'")
    return float(val) if np.ndim(val) == 0 else val


def heat_kernel_classical(t: float, x, y):
    """Classical Hermite semigroup kernel (kappa = 0):

        (2 pi sinh 2t)^(-d/2) exp(-[tanh(t)|x+y|^2 + coth(t)|x-y|^2]/4).
    """
    if t <= 0:
        raise ValueError("heat kernel needs t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.shape[-1]
    sp = np.sum((x + y) ** 2, axis=-1)
    sm = np.sum((x - y) ** 2, axis=-1)
    out = (2.0 * math.pi * math.sinh(2.0 * t)) ** (-d / 2.0) * np.exp(
        -0.25 * (math.tanh(t) * sp + (1.0 / math.tanh(t)) * sm)
    )
    return float(out) if np.ndim(out) == 0 else out


def heat_kernel_series(kappas, t: float, x, y, tol: float = 1e-10, max_terms: int = 600):
    """Spectral-series oracle sum_n e^{-t(2|n|+2gamma+d)} h_n(x) h_n(y).

    Z2^d only (tensor structure: the d-dimensional series is the product of
    rank-one series).  Independent of the closed form; used to adjudicate the
    heat-kernel constant.
    """
    from .hermite import hermite_functions_1d

    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    total = 1.0
    for j, k in enumerate(kappas):
        # adaptive 1-D series with geometric tail bound
        nmax = 40
        while True:
            hx = hermite_functions_1d(k, nmax, np.array([x[j]]))[:, 0]
            hy = hermite_functions_1d(k, nmax, np.array([y[j]]))[:, 0]
            lam = 2.0 * np.arange(nmax + 1) + 2.0 * k + 1.0
            vals = np.exp(-t * lam) * hx * hy
            s = float(np.sum(vals))
            tail = float(np.max(np.abs(vals[-8:]))) / max(1.0 - math.exp(-2.0 * t), 1e-12)
            if tail <= tol * max(abs(s), 1e-300):
                break
            if nmax >= max_terms:
                raise SeriesNonConvergence("heat series did not converge")
            nmax *= 2
        total *= s
    return total


def gaussian_translate(basis_or_rs, c: float, x, y, cfg: KernelConfig = DEFAULT_CONFIG):
    """Dunkl translation of a Gaussian: tau_x(e^{-c|.|^2})(-y), c > 0.

    Closed identity e^{-c(|x|^2+|y|^2)} E_kappa(2c y, x); symmetric in (x, y)
    and squeezed between e^{-c max_g |y-gx|^2} and e^{-c min_g |y-gx|^2}.
    """
    if c <= 0:
        raise ValueError("gaussian_translate needs c > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ev = z2_evaluator(basis_or_rs)
    if ev is not None:
        out = np.exp(ev.log_gaussian_translate(c, x, y))
        return float(out) if np.ndim(out) == 0 else out
    if isinstance(basis_or_rs, HermiteBasis):
        E = dunkl_kernel_mehler(basis_or_rs, 2.0 * c * y, x, cfg)
        return math.exp(-c * float(x @ x + y @ y)) * E
    raise WrongGroup("general-group gaussian_translate needs a HermiteBasis")


# ---------------------------------------------------------------------------
# Riesz kernel

# The orbit distance at or below which the Riesz panels refuse: there the
# time integral is a genuine singularity.
SEPARATION_FLOOR = 1e-6


def _check_axis(j, d):
    if j not in range(1, d + 1):
        raise ValueError(f"Riesz axis j = {j!r} is not one of 1..{d}")


# exp(x) is exactly 0.0 for x below about -745.13, half the least subnormal
LOG_ZERO = -745.2
# The pruning bound holds for the exact log k_t; the computed one also
# carries rounding, of its terms and of the scaled log E (<= 0 only to
# rounding), far less than PRUNE_MARGIN nats.
PRUNE_MARGIN = 2.0
# The most elements (nodes x rows) one block of panel nodes evaluates at once.
# Measured on a z2 kappa=1/2 hormander check: 8k and 12k elements ran
# fastest; 4k pays more fixed numpy cost per block, and from 16k on the
# block's temporaries are handed back to the system and faulted in again
# block after block (up to 0.3 s of system time at 32k).
PANEL_BLOCK_ELEMS = 8192


# The step h of the lattice in v = log t.  Against h = 0.03, on z2 batches with
# md from 1e-5 to 13 and kappa in {1/2, 1, 3}, A and B are within 9.1e-15
# relative at h = 0.09, 1.2e-13 at 0.1, 5.4e-12 at 0.11 and 8.4e-10 at 0.125.
LATTICE_STEP = 0.09


def _prune_edge(ev: Z2Evaluator, s):
    """(edge, _log_front(s)) at s = sinh 2t: k_t is exactly 0.0 if md^2 > edge."""
    front = ev._log_front(s)
    return 2 * s * (front + PRUNE_MARGIN - LOG_ZERO), front


def _riesz_lattice(ev: Z2Evaluator, md2: float):
    """(t, h sqrt(t) for dt/sqrt(t), sinh 2t, coth 2t) at the nodes t = e^{i h}
    from the first where a pair with md^2 = md2 can have k_t != 0 to the first
    at or past t_max = 1 + 60/(2 gamma + d + 2).  The pair's pruning bound
    rises with t up to sinh 2t = md^2/(2 gamma + d), so there every node under
    a pruned one is pruned."""
    h = LATTICE_STEP
    t_peak = 0.5 * math.asinh(md2 / (2.0 * ev.gamma + ev.d))
    i = math.ceil(math.log(1.0 + 60.0 / (2.0 * ev.gamma + ev.d + 2.0)) / h)
    nodes = []
    while True:
        t = math.exp(i * h)
        s = math.sinh(2.0 * t)
        if s == 0.0 or (t < t_peak and md2 > _prune_edge(ev, s)[0]):
            break
        nodes.append((t, h * math.sqrt(t), s, math.cosh(2.0 * t) / s))
        i -= 1
    return np.array(nodes[::-1]).reshape(-1, 4).T


def _node_blocks(prefix):
    """(nodes, longest prefix) for runs of consecutive nodes with a nonempty
    prefix, each run as long as (nodes x longest prefix) stays within
    PANEL_BLOCK_ELEMS; a node whose prefix alone exceeds it is a block."""
    block, n = [], 0
    for i in np.flatnonzero(prefix):
        if block and (len(block) + 1) * max(n, prefix[i]) > PANEL_BLOCK_ELEMS:
            yield block, n
            block, n = [], 0
        block.append(i)
        n = max(n, prefix[i])
    if block:
        yield block, n


def _riesz_time_integrals(basis: HermiteBasis, X, Y):
    """(A, B, X, Y) with X, Y broadcast and A, B the panel sums of

        A = pi^(-1/2) int k_t(x,y) (1 - coth 2t) dt / sqrt(t),
        B = pi^(-1/2) int k_t(x,y) / sinh 2t dt / sqrt(t),

    so that K_j(x,y) = A x_j + B y_j for every axis j and, k_t being
    symmetric, K_j(y,x) = A y_j + B x_j.  Z2^d systems only; an empty batch
    gives empty sums, and a coordinate that is not finite raises ValueError.

    The trapezoid rule on the lattice of _riesz_lattice, cross-checked in
    the tests against mpmath and an independent adaptive quadrature.  The
    rows are sorted once by the md^2 that the leading terms of log k_t
    (module notes) subtract, and at each node only a prefix of them can have
    k_t != 0: past it those terms, widened by PRUNE_MARGIN, are below
    LOG_ZERO.  Consecutive nodes are grouped into blocks of at most
    PANEL_BLOCK_ELEMS (nodes x longest prefix) elements, and each block is
    evaluated as one nodes x rows array by _log_heat_block.  A row past its node's own prefix
    gives exactly 0.0 there and adds exactly +-0.0 to accumulators that are
    never -0.0; nodes with an empty prefix are left out.  A and B are
    accumulated in node order, and log E takes each element's route from
    (kappa, |w|) alone.  So every row's sums are the unpruned sums on the
    lattice bit for bit, and, a row being exactly 0.0 below its own first
    node, the same bits alone as inside any batch.
    """
    ev = z2_evaluator(basis)
    if ev is None:
        raise WrongGroup("the Riesz kernel requires a Z2^d root system")
    X, Y = np.broadcast_arrays(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("Riesz panels need finite coordinates")
    if X.size == 0:
        empty = np.zeros(X.shape[:-1])
        return empty, empty, X, Y
    P = ev._pairs(X, Y).reshape(ev.d + 2, -1)
    md = np.sqrt(P[0])
    if np.any(md <= SEPARATION_FLOOR):
        raise OrbitTooClose("a point pair sits below the separation floor")
    order = np.argsort(P[0], kind="stable")
    P = P[:, order]
    t, w, s, c = _riesz_lattice(ev, float(P[0, 0]))
    edge, front = _prune_edge(ev, s)
    # the number of leading rows at which k_t can be nonzero
    prefix = np.searchsorted(P[0], edge, "right")
    wa, wb = w * (1.0 - c), w / s
    AB = np.zeros((2, md.size))
    for block, n in _node_blocks(prefix):
        k = ev._log_heat_block(t[block], s[block], front[block], P[:, :n])
        np.exp(k, out=k)
        for ka, kb in zip(wa[block, None] * k, wb[block, None] * k):  # in node order
            AB[0, :n] += ka
            AB[1, :n] += kb
    out = np.empty_like(AB)
    out[:, order] = AB
    out = out.reshape((2,) + X.shape[:-1]) / math.sqrt(math.pi)
    return out[0], out[1], X, Y


def riesz_kernel_many(basis: HermiteBasis, j: int, X, Y) -> np.ndarray:
    """Vectorized K_j over broadcast batches X, Y of shape (..., d), by the
    panel sums of _riesz_time_integrals.  Z2^d systems only."""
    return riesz_kernel_both(basis, j, X, Y)[0]


def riesz_kernel(basis: HermiteBasis, j: int, x, y) -> float:
    """K_j(x, y) at one point pair of shape (d,): the batch of one of
    riesz_kernel_many, the same bits as that pair's row in any batch.
    Z2^d systems only; j is a 1-based axis, and a pair at orbit distance
    SEPARATION_FLOOR or less raises OrbitTooClose."""
    return float(riesz_kernel_many(basis, j, x, y))


def riesz_kernel_both(basis: HermiteBasis, j: int, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """(K_j(X, Y), K_j(Y, X)) from one panel pass: the time integrals A, B
    serve both orientations.  Z2^d systems only."""
    _check_axis(j, basis.rs.dim)
    A, B, X, Y = _riesz_time_integrals(basis, X, Y)
    x, y = X[..., j - 1], Y[..., j - 1]
    return A * x + B * y, A * y + B * x
