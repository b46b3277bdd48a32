"""Verification harness: every kernel estimate, identity, and boundedness
claim runs as a named check and lands in a machine-readable report.

Conventions
-----------
* Existential-constant claims (the lemma bounds, kernel decay) are fitted:
  C_fit = max of LHS/RHS over a deterministic sample grid, computed in log
  scale so underflowing tails stay meaningful.  "Pass" means C_fit is finite
  and grows by less than FIT_GROWTH_TOL when every grid is refined 2x; the
  statements assert existence of C, never a value.
* Sampling is deterministic given the seed; reports are reproducible
  byte-for-byte on the canonical payload (wall times excluded).
* Checks that need structure the configured group lacks (e.g. the Mehler
  cross-check needs an independent rank-one/Z2^d evaluator) return status
  "skip" rather than failing.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np
from numpy.polynomial.legendre import leggauss

from .hermite import HermiteBasis, _dunkl_blocks, _laplacian_blocks, build_basis, hermite_functions_1d
from .kernels import (
    SEPARATION_FLOOR,
    OrbitTooClose,
    Z2Evaluator,
    column,
    heat_kernel,
    heat_kernel_classical,
    heat_kernel_series,
    per_row,
    riesz_kernel_both,
    riesz_kernel_many,
    z2_evaluator,
)
from .polyalg import get_algebra
from .qfield import apply_columns, over_one_denominator
from .reflection import gamma_exact, orbit_distances, weight
from .spectral import delta_matrix, operator_norm, riesz_matrix


class SupportOverlap(ValueError):
    """Test function support meets the orbit of an evaluation point."""


@dataclass
class VerifyConfig:
    """The seed and the sampling plans of the checks; every check is
    deterministic given the seed.

    Only sample counts and grids are settable.  Pass tolerances, slacks and
    the other fixed constants of a check are module constants next to the
    check that reads them, so no configuration can move a verdict.
    """

    seed: int = 20240801
    # constant-fit protocol (lemma bounds, decay)
    fit_t_points: int = 12            # log grid on (FIT_T_MIN, 1]
    fit_t_large_points: int = 8       # log grid on [1, 5]
    fit_grid_points: int = 13         # per-axis points for x, y grids (d=1)
    fit_ridge_points: int = 15        # ridge offsets y = g.x + s sqrt(t)
    # Mehler comparison
    mehler_r_values: tuple = (0.1, 0.25, 0.4, 0.5)
    # Riesz kernel decay
    decay_separations: int = 12       # log-spaced in [0.1, 10]
    # Hormander: separations must probe the delta -> 0 regime (the integrals
    # only saturate toward their supremum below delta ~ 0.02 at y ~ 1)
    horm_separations: tuple = (0.001, 0.002, 0.005, 0.01, 0.02)
    horm_mc_samples: int = 4000
    # Riesz L2
    norm_vectors: int = 32
    # Lp evidence
    lp_samples: int = 50


DEFAULT_VERIFY = VerifyConfig()

# Revision of the report's canonical payload: raised by every change that
# moves a value a fixed config and seed produce, or adds or drops a field.
PAYLOAD_VERSION = 6


@dataclass(kw_only=True)
class CheckResult:
    name: str = ""               # set by the check runner
    status: str                  # "pass" | "fail" | "skip"
    config: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    samples: int = 0
    seed: int = 0
    runtime_ms: float = 0.0
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass
class VerificationReport:
    checks: list
    config: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def canonical_payload(self) -> dict:
        """Deterministic content: everything except wall-clock times."""
        body = []
        for c in self.checks:
            d = asdict(c)
            d.pop("runtime_ms")
            body.append(d)
        return {"checks": body, "config": self.config}

    def to_json(self) -> str:
        full = {
            "checks": [asdict(c) for c in self.checks],
            "config": self.config,
        }
        return json.dumps(full, sort_keys=True, indent=1, default=_json_default)

    def constants_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["check", "constant", "value"])
        for c in self.checks:
            for k, v in sorted(c.constants.items()):
                wr.writerow([c.name, k, repr(v)])
        return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _worst(*residuals) -> float:
    """The largest residual, NaN if any is NaN: Python's max drops a NaN that
    is not its first argument, and a NaN residual must fail its gate."""
    return float(np.max(residuals))


def _summary(basis: HermiteBasis) -> dict:
    return {
        "group": basis.rs.name,
        "dim": basis.rs.dim,
        "kappa": [float(k) for k in basis.rs.multiplicity],
        "degree": basis.N,
        "exact": basis.exact,
    }


# ---------------------------------------------------------------------------
# check runner

# Structure a check can require of the basis, by the name it declares.
_REQUIREMENTS = {
    "z2": lambda basis: z2_evaluator(basis) is not None,
    "z2_1d": lambda basis: basis.rs.dim == 1 and z2_evaluator(basis) is not None,
    "degree_12": lambda basis: basis.N >= 12,
}


def _check(**needs):
    """Make `body(basis, cfg) -> CheckResult` a named check.

    `needs` maps requirement names (keys of `_REQUIREMENTS`), in the order
    they are tested, to the note of the skip result returned when the basis
    lacks that structure.  The runner names the result after the check, puts
    the basis summary in front of the body's own config entries and stamps
    the seed and the wall time.
    """

    def wrap(body):
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check(basis: HermiteBasis, cfg: VerifyConfig = DEFAULT_VERIFY) -> CheckResult:
            for need, note in needs.items():
                if not _REQUIREMENTS[need](basis):
                    return CheckResult(name=name, status="skip", config=_summary(basis),
                                       notes=note, seed=cfg.seed)
            t0 = time.perf_counter()
            result = body(basis, cfg)
            result.name = name
            result.config = {**_summary(basis), **result.config}
            result.seed = cfg.seed
            result.runtime_ms = 1e3 * (time.perf_counter() - t0)
            return result

        return check

    return wrap


# ---------------------------------------------------------------------------
# identity checks


EIGEN_TOL = 1e-10


@_check()
def check_eigen(basis, cfg):
    """Oscillator eigenvalue identity on every H_n up to truncation.

    Exact bases: the residual polynomial must vanish identically, taken
    degree by degree in integers (_eigen_residuals_exact).  Float bases:
    coefficient residual of conjugated_oscillator(H) - lambda H below
    EIGEN_TOL relative to the largest coefficient.
    """
    if basis.exact:
        worst, exact_failures = _eigen_residuals_exact(basis)
    else:
        alg = get_algebra(basis.rs, False)
        worst, exact_failures = 0.0, 0
        for H, n in zip(basis.H_raw, basis.indices):
            lam = float(2 * sum(n) + basis.rs.dim) + 2.0 * basis.gamma
            resid = alg.conjugated_oscillator(H) - H.scale(lam)
            scale = max((abs(c) for c in H.terms.values()), default=1.0)
            worst = _worst(worst, *(abs(float(c)) / scale for c in resid.terms.values()))
    ok = exact_failures == 0 if basis.exact else worst < EIGEN_TOL
    return CheckResult(
        status="pass" if ok else "fail",
        residuals={"max_residual": worst, "exact_failures": exact_failures,
                   "eigen_tol": EIGEN_TOL},
        samples=basis.size,
        notes="zero-residual in exact arithmetic" if basis.exact else "float basis",
    )


def _eigen_residuals_exact(basis) -> tuple[float, int]:
    """The largest |coefficient| of the residuals L~ H_n - lambda_n H_n and the
    number of nonzero residuals, for an exact basis, in integers.

    L~ = -Laplacian + sum_j (X_j T_j + T_j X_j), X_j the multiplication by
    x_j, maps degree k to degrees k and k - 2.  So with p_k the degree-k terms
    of H_raw_n as it is stored (one integer vector per degree, over the one
    denominator of H_raw_n), the degree-k residual is

        O_k p_k - Delta^(k+2) p_{k+2} - lambda_n p_k,
        O_k = sum_j (X_j M_j^(k) + M_j^(k+1) X_j),

    from blocks the check forms itself from the M_j^(k) columns, degree
    N + 1 included; it reads nothing the build derived.  Each value is the
    same rational as the coefficient of conjugated_oscillator(H_raw_n) -
    lambda_n H_raw_n, and its float the same float.
    """
    alg = get_algebra(basis.rs, True)
    two_gamma = 2 * gamma_exact(basis.rs)
    top = max(sum(e) for H in basis.H_raw for e in H.terms)
    blocks, matrices = _dunkl_blocks(alg, top + 1)
    laplacians = _laplacian_blocks(matrices)
    oscillators = _oscillator_blocks(blocks, matrices)
    positions = [{b: i for i, b in enumerate(block)} for block in blocks]
    worst, failures = 0.0, 0
    for H, n in zip(basis.H_raw, basis.indices):
        lam = 2 * sum(n) + basis.rs.dim + two_gamma
        nums, den = over_one_denominator(list(H.terms.values()))
        p = [[0] * len(block) for block in blocks]
        for e, c in zip(H.terms, nums):
            p[sum(e)][positions[sum(e)][e]] = c
        failed = False
        for k in range(top + 1):
            lowered = k + 2 <= top and any(p[k + 2])
            if not (lowered or any(p[k])):
                continue
            columns, o_den = oscillators[k]
            scale = math.lcm(o_den, lam.denominator, laplacians[k + 2][1] if lowered else 1)
            o_f, lam_f = scale // o_den, scale // lam.denominator * lam.numerator
            r = [o_f * o - lam_f * c for o, c in zip(apply_columns(columns, p[k], len(p[k])), p[k])]
            if lowered:
                columns, l_den = laplacians[k + 2]
                l_f = scale // l_den
                r = [a - l_f * b for a, b in zip(r, apply_columns(columns, p[k + 2], len(p[k])))]
            largest = max(map(abs, r))
            if largest:
                failed = True
                worst = _worst(worst, largest / (scale * den))
        failures += failed
    return worst, failures


def _oscillator_blocks(blocks: list, matrices: list) -> list:
    """O_k = sum_j (X_j M_j^(k) + M_j^(k+1) X_j), the degree-preserving part of
    the conjugated oscillator on block k, for k < len(blocks) - 1 (the blocks
    and matrices of hermite._dunkl_blocks), by columns over one denominator:
    (columns, den), each column the pairs (position in block k, numerator)."""
    out = []
    for k in range(len(blocks) - 1):
        pos = {b: i for i, b in enumerate(blocks[k])}
        up = {b: i for i, b in enumerate(blocks[k + 1])}
        parts = matrices[k + 1] + (matrices[k] if k else [])
        den = math.lcm(*(part_den for _, part_den in parts))
        columns = []
        for i, b in enumerate(blocks[k]):
            acc: dict = {}
            for j, (raised, raised_den) in enumerate(matrices[k + 1]):
                f = den // raised_den
                for c, v in raised[up[b[:j] + (b[j] + 1,) + b[j + 1:]]]:
                    acc[c] = acc.get(c, 0) + f * v
                if k:
                    lowered, lowered_den = matrices[k][j]
                    f = den // lowered_den
                    for c, v in lowered[i]:
                        e = blocks[k - 1][c]
                        t = pos[e[:j] + (e[j] + 1,) + e[j + 1:]]
                        acc[t] = acc.get(t, 0) + f * v
            columns.append([(c, v) for c, v in acc.items() if v])
        out.append((columns, den))
    return out


MEHLER_GRID_POINTS = 9
MEHLER_TOL = 1e-6


@_check(z2="independent evaluator needs Z2^d",
        degree_12="truncation below the N >= 12 contract")
def check_mehler(basis, cfg):
    """Truncated Mehler sum against the closed form, on a (r, x, y) grid.

    Needs an independent kernel evaluator, so the group must be Z2^d.  The
    attainable tolerance is set by the truncation tail ~ r^(N+1), so the
    pass level MEHLER_TOL is meaningful only with N large enough for the
    largest r in the grid (r = 0.5 needs N >= 24 for 1e-6).
    """
    ev = z2_evaluator(basis)
    d = basis.rs.dim
    pts = np.linspace(-1.0, 1.0, MEHLER_GRID_POINTS if d == 1 else 5)
    grids = np.meshgrid(*([pts] * d), indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=-1)
    worst = 0.0
    count = 0
    Hvals = {}
    for i in range(basis.size):
        Hvals[i] = basis.H[i].eval_float(box)
    for r in cfg.mehler_r_values:
        lhs = np.zeros((box.shape[0], box.shape[0]))
        for i, n in enumerate(basis.indices):
            lhs += np.outer(Hvals[i], Hvals[i]) * (r ** sum(n) / 2.0 ** sum(n))
        q = np.sum(box * box, axis=-1)
        loge = ev.log_E(box[:, None, :] * (2.0 * r / (1.0 - r * r)), box[None, :, :])
        # r near 1 overflows the closed form; the NaN residual fails the gate
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rhs = (
                (1.0 - r * r) ** -(basis.gamma + d / 2.0)
                * np.exp(-r * r / (1.0 - r * r) * (q[:, None] + q[None, :]))
                * np.exp(loge)
            )
            rel = np.abs(lhs - rhs) / np.abs(rhs)
        worst = _worst(worst, np.max(rel))
        count += rel.size
    return CheckResult(
        status="pass" if worst < MEHLER_TOL else "fail",
        config={"r_values": list(cfg.mehler_r_values)},
        residuals={"max_rel_err": worst, "tolerance": MEHLER_TOL},
        samples=count,
    )


HEAT_T_VALUES = (0.1, 0.3, 1.0, 2.0)
HEAT_PAIRS = 12
HEAT_TOL = 1e-6
HEAT_CLASSICAL_TOL = 1e-10
HEAT_SYMMETRY_TOL = 1e-10
HEAT_FACTOR_TOL = 1e-10


@_check(z2="series oracle needs Z2^d")
def check_heat(basis, cfg):
    """Heat kernel: closed form vs spectral series; classical reduction;
    symmetry; and the printed-constant discrepancy (must be off by exactly
    2^(gamma + d/2) and must fail the series comparison)."""
    kappas = z2_evaluator(basis).kappas
    rng = np.random.default_rng([cfg.seed, 1])
    d = basis.rs.dim
    X = rng.uniform(-1.5, 1.5, (HEAT_PAIRS, d))
    Y = rng.uniform(-1.5, 1.5, (HEAT_PAIRS, d))
    # the kappa = 0 evaluator at the same dimension, for the classical reduction
    ev0 = Z2Evaluator(np.zeros(d), (2.0 * math.pi) ** (d / 2.0), 0.0)
    worst_series = worst_sym = worst_classical = 0.0
    printed_min_err = math.inf
    factor_err = 0.0
    for t in HEAT_T_VALUES:
        for xi, yi in zip(X, Y):
            closed = heat_kernel(basis, t, xi, yi)
            series = heat_kernel_series(kappas, t, xi, yi)
            worst_series = _worst(worst_series, abs(closed - series) / abs(series))
            sym = heat_kernel(basis, t, yi, xi)
            worst_sym = _worst(worst_sym, abs(closed - sym) / abs(closed))
            printed = heat_kernel(basis, t, xi, yi, prefactor="printed")
            printed_min_err = float(np.min((printed_min_err, abs(printed - series) / abs(series))))
            factor_err = _worst(factor_err, abs(printed / closed - 2.0 ** (basis.gamma + d / 2.0)))
        for xi, yi in zip(X, Y):
            red = float(ev0.heat(t, xi, yi))
            cls = heat_kernel_classical(t, xi, yi)
            worst_classical = _worst(worst_classical, abs(red - cls) / abs(cls))
    expected_gap = 2.0 ** (basis.gamma + d / 2.0) - 1.0
    ok = (
        worst_series < HEAT_TOL
        and worst_classical < HEAT_CLASSICAL_TOL
        and worst_sym < HEAT_SYMMETRY_TOL
        and factor_err < HEAT_FACTOR_TOL
        and printed_min_err > HEAT_TOL  # the printed constant MUST fail
    )
    return CheckResult(
        status="pass" if ok else "fail",
        config={"t_values": list(HEAT_T_VALUES)},
        residuals={
            "series_vs_closed": worst_series,
            "classical_reduction": worst_classical,
            "symmetry": worst_sym,
            "printed_constant_factor_err": factor_err,
            "printed_constant_min_rel_err": printed_min_err,
            "printed_expected_rel_err": expected_gap,
            "heat_tol": HEAT_TOL,
            "heat_classical_tol": HEAT_CLASSICAL_TOL,
            "heat_symmetry_tol": HEAT_SYMMETRY_TOL,
            "heat_factor_tol": HEAT_FACTOR_TOL,
        },
        samples=len(HEAT_T_VALUES) * HEAT_PAIRS,
    )


# ---------------------------------------------------------------------------
# constant-fit checks

FIT_GROWTH_TOL = 0.05
FIT_T_MIN = 1e-3
FIT_BOX = 2.5
FIT_GRID_POINTS_2D = 5            # per-axis points (d=2; pairs are quartic)
A_CONST, B_CONST, C_CONST = 0.125, 0.125, 0.0625


def _fit_grids(basis: HermiteBasis, cfg: VerifyConfig, refine: int = 1):
    d = basis.rs.dim
    ts = np.geomspace(FIT_T_MIN, 1.0, cfg.fit_t_points * refine)
    tl = np.geomspace(1.0, 5.0, cfg.fit_t_large_points * refine)
    per_axis = (cfg.fit_grid_points if d == 1 else FIT_GRID_POINTS_2D) * refine
    pts = np.linspace(-FIT_BOX, FIT_BOX, per_axis)
    grids = np.meshgrid(*([pts] * d), indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=-1)
    X = np.repeat(box, box.shape[0], axis=0)
    Y = np.tile(box, (box.shape[0], 1))
    s = np.linspace(-3.0, 3.0, cfg.fit_ridge_points * refine)
    return ts, tl, X, Y, box, s


def _ridge_pairs(basis, box, s, t, refine):
    """Pairs concentrating where the bound ratios peak: y = g.x + s sqrt(t) u.

    The small-t suprema live on scaling ridges around the orbit of x; in two
    dimensions the offset direction u matters, so a direction grid refines
    along with everything else.
    """
    d = box.shape[1]
    if d == 1:
        dirs = np.array([[1.0]])
    else:
        ang = np.linspace(0.0, 2.0 * math.pi, 8 * refine, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    mats = basis.rs.group.matrices
    gx = np.einsum("gij,nj->ngi", mats, box).reshape(-1, d)
    per = len(s) * len(dirs)
    Xr = np.repeat(np.tile(box, (len(mats), 1)), per, axis=0)
    gx = np.repeat(gx, per, axis=0)
    offs = np.tile(np.repeat(s, len(dirs)), len(mats) * box.shape[0])[:, None]
    u = np.tile(dirs, (len(mats) * box.shape[0] * len(s), 1))
    Yr = gx + offs * u * math.sqrt(t)
    return Xr, Yr


def _cross(A, B):
    """max over (i, j) of A_j + B_i (both in log scale)."""
    return np.max(A[..., None, :] + B[..., :, None], axis=(-2, -1))


# Kernel pieces shared by the lemma ratios, as functions of a LemmaPieces p;
# log_k0 and dl0 are the classical (kappa = 0) kernel and d/dy of its log.
_PIECES = {
    "sm": lambda p: np.sum((p.X - p.Y) ** 2, -1),
    "ylog": lambda p: np.log(np.abs(p.Y)),
    "ymax": lambda p: np.max(p.ylog, -1),
    "dxy": lambda p: np.log(np.abs(p.X - p.Y)),
    "tanh": lambda p: per_row(math.tanh, p.t),
    "log_k0": lambda p: -p.d / 2.0 * per_row(
        lambda t: math.log(2.0 * math.pi * math.sinh(2.0 * t)), p.t)
    - 0.25 * (p.tanh * np.sum((p.X + p.Y) ** 2, -1) + p.sm / p.tanh),
    "dl0": lambda p: np.log(np.abs(
        -0.5 * (column(p.tanh) * (p.Y + p.X) + (p.Y - p.X) / column(p.tanh)))),
    "base0": lambda p: p.log_k0 + A_CONST * p.sm / p.t,
    "pairs": lambda p: p.ev._pairs(p.X, p.Y),
    "log_heat": lambda p: p.ev._log_heat(p.t, p.pairs),
    "dl": lambda p: np.log(np.stack(
        [np.abs(p.ev.dlog_heat_dy(p.t, p.X, p.Y, i)) for i in range(p.d)], -1)),
    "base1": lambda p: p.log_heat - p.ev._log_gaussian_translate(B_CONST / p.t, p.pairs),
    "tau_b": lambda p: p.ev._log_gaussian_translate(B_CONST, p.pairs),
    "tau_sum": lambda p: np.logaddexp.reduce(np.stack(
        [p.ev._log_gaussian_translate(C_CONST / p.t, P)
         for P in [p.pairs] + [p.ev._reflected_pairs(p.pairs, alpha) for alpha in p.roots]]),
        axis=0),
}


class LemmaPieces:
    """The `_PIECES` at (t, X, Y), each computed the first time a ratio asks
    for it and then kept: one object serves every ratio of a grid pass, and
    a polish step computes only the pieces its ratios use.

    t is a float (a grid pass) or a 1-D array with one t per row of X and Y
    (a polish step); each row then equals the float-t evaluation of that row
    bit for bit.
    """

    def __init__(self, basis: HermiteBasis, t, X, Y):
        self.t, self.X, self.Y, self.lt = t, X, Y, per_row(math.log, t)
        self.ev, self.roots = z2_evaluator(basis), basis.rs.positive_roots
        self.d, self.gam = basis.rs.dim, basis.gamma

    def __getattr__(self, name):  # reached only for a piece not yet computed
        if name not in _PIECES:
            raise AttributeError(name)
        value = self.__dict__[name] = _PIECES[name](self)
        return value


# The 14 inequalities as log(LHS/RHS) of a LemmaPieces object; names ending
# in _small are stated for 0 < t <= 1, _large for t > 1.
LEMMA_RATIOS = {
    "classical_small_i": lambda p: p.base0 + p.d / 2.0 * p.lt,
    "classical_small_ii": lambda p: p.ymax + p.base0 + (p.d + 1) / 2.0 * p.lt,
    "classical_small_iii": lambda p: np.max(p.dl0, -1) + p.base0 + (p.d + 1) / 2.0 * p.lt,
    "classical_small_iv": lambda p: _cross(p.ylog, p.dl0) + p.base0 + (p.d / 2.0 + 1.0) * p.lt,
    "dunkl_small_i": lambda p: p.base1 + (p.gam + p.d / 2.0) * p.lt,
    "dunkl_small_ii": lambda p: p.ymax + p.base1 + (p.gam + (p.d + 1) / 2.0) * p.lt,
    "dunkl_small_iii": lambda p: np.max(p.dl, -1) + p.base1 + (p.gam + (p.d + 1) / 2.0) * p.lt,
    "dunkl_small_iv": lambda p: _cross(p.ylog, p.dl) + p.base1 + (p.gam + p.d / 2.0 + 1.0) * p.lt,
    "reflected_small_i": lambda p: np.max(p.dxy, -1) + p.log_heat - p.tau_sum
    + (p.gam + p.d / 2.0 - 0.5) * p.lt,
    "reflected_small_ii": lambda p: _cross(p.dxy, p.dl) + p.log_heat - p.tau_sum
    + (p.gam + p.d / 2.0) * p.lt,
    "classical_large_v": lambda p: p.log_k0 + p.d * p.t + A_CONST * p.sm,
    "classical_large_vi": lambda p: p.ymax + p.log_k0 + p.d * p.t + A_CONST * p.sm,
    "dunkl_large_v": lambda p: p.log_heat - p.tau_b + (2.0 * p.gam + p.d) * p.t,
    "dunkl_large_vi": lambda p: p.ymax + p.log_heat - p.tau_b + (2.0 * p.gam + p.d) * p.t,
}


# Nelder-Mead exactly as scipy.optimize.minimize(method="Nelder-Mead") runs
# it with options maxiter 400, xatol 1e-6 and fatol 1e-10: the non-adaptive
# coefficients, scipy's initial simplex, and no cap on evaluations.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_MAXITER, _NM_XATOL, _NM_FATOL = 400, 1e-6, 1e-10


@dataclass
class NelderMeadRuns:
    """Per-run outcome of `_nelder_mead_lockstep`, one entry per run."""

    x: np.ndarray          # (R, n) best vertex
    fun: np.ndarray        # (R,) its value
    nfev: np.ndarray       # (R,) function evaluations
    nit: np.ndarray        # (R,) iterations, counted from 1 as scipy does
    shrinks: np.ndarray    # (R,) shrink steps


def _sort_simplices(sim, fsim):
    """Each run's vertices in the order scipy's argsort of its values gives."""
    ind = np.argsort(fsim, axis=1)
    return np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)


def _nelder_mead_lockstep(f, z0) -> NelderMeadRuns:
    """Minimize from each start z0[r] (an (R, n) array) by Nelder-Mead, with
    the simplices of all R runs stepped together as one (R, n+1, n) array.

    f(runs, Z) returns the values at the rows of Z, where row k is a point
    of run runs[k].  Each step calls it once with the reflect points of
    every active run, once with the expand and contract points, and once
    with the shrink points.  Each run repeats scipy's iterates (Nelder &
    Mead, Comput. J. 1965; Lagarias et al., SIAM J. Optim. 1998) operation
    for operation, including the convergence test before each iteration and
    the argsort after it, so with the same values it returns scipy's x, fun
    and nfev.
    """
    R, n = z0.shape
    sim = np.repeat(z0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    edge = sim[:, k + 1, k]
    sim[:, k + 1, k] = np.where(edge != 0, (1 + _NM_NONZDELT) * edge, _NM_ZDELT)
    fsim = f(np.repeat(np.arange(R), n + 1), sim.reshape(-1, n)).reshape(R, n + 1)
    for _ in range(2):  # scipy sorts the initial simplex twice
        sim, fsim = _sort_simplices(sim, fsim)
    nfev = np.full(R, n + 1)
    nit = np.ones(R, dtype=int)
    shrinks = np.zeros(R, dtype=int)
    active = np.arange(R)
    iterations = 1
    while iterations < _NM_MAXITER:
        S, F = sim[active], fsim[active]
        done = (np.max(np.abs(S[:, 1:] - S[:, :1]), axis=(1, 2)) <= _NM_XATOL) & (
            np.max(np.abs(F[:, :1] - F[:, 1:]), axis=1) <= _NM_FATOL)
        active, S, F = active[~done], S[~done], F[~done]
        if active.size == 0:
            break
        xbar = np.add.reduce(S[:, :-1], 1) / n
        worst = S[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = f(active, xr)
        expand = fxr < F[:, 0]
        accept = ~expand & (fxr < F[:, -2])
        outside = ~expand & ~accept & (fxr < F[:, -1])
        inside = ~expand & ~accept & ~outside
        x2 = np.where(
            expand[:, None], (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * worst,
            np.where(outside[:, None], (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * worst,
                     (1 - _NM_PSI) * xbar + _NM_PSI * worst))
        f2 = np.full(active.size, np.nan)
        if not accept.all():
            f2[~accept] = f(active[~accept], x2[~accept])
        take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < F[:, -1]))
        take_r = accept | (expand & ~take2)
        shrink = (outside | inside) & ~take2
        S[:, -1] = np.where(take2[:, None], x2, np.where(take_r[:, None], xr, worst))
        F[:, -1] = np.where(take2, f2, np.where(take_r, fxr, F[:, -1]))
        if shrink.any():
            s = S[shrink]
            s[:, 1:] = s[:, :1] + _NM_SIGMA * (s[:, 1:] - s[:, :1])
            S[shrink] = s
            F[shrink, 1:] = f(np.repeat(active[shrink], n), s[:, 1:].reshape(-1, n)).reshape(-1, n)
        iterations += 1
        sim[active], fsim[active] = _sort_simplices(S, F)
        nfev[active] += 1 + ~accept + n * shrink
        nit[active] = iterations
        shrinks[active] += shrink
    return NelderMeadRuns(x=sim[:, 0], fun=np.min(fsim, axis=1), nfev=nfev, nit=nit, shrinks=shrinks)


def _polish(basis, runs) -> NelderMeadRuns:
    """Local minimization of -ratio from grid seeds, one run per (ratio name,
    seed (t, x, y)), all runs in one `_nelder_mead_lockstep` on z = (log t, x, y).

    A point is fenced, with value 1e9 and no evaluation, when log t leaves its
    run's t-range or a coordinate exceeds 2 FIT_BOX; a non-finite ratio also
    gives 1e9.  Each batch of points builds one LemmaPieces over all its
    unfenced rows, evaluates each ratio that occurs there, and gives each row
    its own run's ratio.  The grids locate the basin; polishing removes
    resolution bias, so the refinement comparison tests basin discovery, not
    grid spacing.
    """
    d = basis.rs.dim
    names = list(LEMMA_RATIOS)
    which = np.array([names.index(name) for name, _ in runs])
    small = np.array(["_small_" in name for name, _ in runs])
    lo = np.where(small, math.log(FIT_T_MIN / 10.0), math.log(1.0))
    hi = np.where(small, math.log(1.0), math.log(8.0))
    box_limit = 2.0 * FIT_BOX

    def neg_ratio(k, Z):
        out = np.full(len(k), 1e9)
        kept = (lo[k] <= Z[:, 0]) & (Z[:, 0] <= hi[k]) & ~np.any(np.abs(Z[:, 1:]) > box_limit, 1)
        if kept.any():
            Zin, ratio_of = Z[kept], which[k[kept]]
            pieces = LemmaPieces(basis, per_row(math.exp, Zin[:, 0]),
                                 Zin[:, 1 : 1 + d], Zin[:, 1 + d :])
            vals = np.empty(len(Zin))
            with np.errstate(divide="ignore", invalid="ignore"):
                for i in np.unique(ratio_of):
                    rows = ratio_of == i
                    vals[rows] = LEMMA_RATIOS[names[i]](pieces)[rows]
            out[kept] = np.where(np.isfinite(vals), -vals, 1e9)
        return out

    z0 = np.array([np.concatenate([[math.log(t0)], x0, y0]) for _, (t0, x0, y0) in runs])
    return _nelder_mead_lockstep(neg_ratio, z0)


def _lemma_bound_fits(basis: HermiteBasis, cfg: VerifyConfig, refine: int) -> dict:
    """Grid maxima of the 14 kernel log-ratios at a = b = 1/8, c = 1/16, with
    the polish seeds: name -> (max, [(t, x, y) of the best three rows]).

    Grid max over (t-grid) x (pair grid + scaling-ridge pairs), computed in a
    single pass over shared kernel pieces.
    """
    ts, tl, X0, Y0, box, s = _fit_grids(basis, cfg, refine)
    best: dict[str, list] = {name: [] for name in LEMMA_RATIOS}

    def scan(t, X, Y, small):
        pieces = LemmaPieces(basis, t, X, Y)
        for name, ratio in LEMMA_RATIOS.items():
            if ("_small_" in name) == small:
                vals = ratio(pieces)
                i = int(np.argmax(vals))
                best[name].append((float(vals[i]), t, X[i].copy(), Y[i].copy()))

    with np.errstate(divide="ignore"):
        for t in ts:
            Xr, Yr = _ridge_pairs(basis, box, s, t, refine)
            scan(t, np.vstack([X0, Xr]), np.vstack([Y0, Yr]), small=True)
        for t in tl:
            scan(t, X0, Y0, small=False)
    out = {}
    for name, rows in best.items():
        rows.sort(key=lambda r: -r[0])
        out[name] = (rows[0][0], [(t, x, y) for _, t, x, y in rows[:3]])
    return out


@_check(z2="closed-form kernels need Z2^d")
def check_lemma_bounds(basis, cfg):
    """All 14 kernel inequalities via the constant-fit stability protocol.

    Six classical bounds, six Dunkl bounds with the Gaussian-translation right
    side, two reflected-center-sum bounds; a = b = 1/8, c = 1/16.  Each C_fit
    is exp of the larger of the grid max and the best polished value from
    the three best grid seeds; the polish is scipy's Nelder-Mead, run in one
    lockstep over all 84 seeds of the coarse and the 2x refined grids.  Pass
    means every C_fit grows < FIT_GROWTH_TOL under the refinement.
    """
    fits = [_lemma_bound_fits(basis, cfg, refine) for refine in (1, 2)]
    runs = [(name, seed) for fit in fits for name, (_, seeds) in fit.items() for seed in seeds]
    sups = iter(-_polish(basis, runs).fun)
    coarse, fine = (
        {name: math.exp(_worst(grid, *itertools.islice(sups, len(seeds))))
         for name, (grid, seeds) in fit.items()}
        for fit in fits
    )
    growth = {k: fine[k] / coarse[k] - 1.0 for k in coarse}
    ok = all(np.isfinite(v) for v in fine.values()) and all(
        g < FIT_GROWTH_TOL for g in growth.values()
    )
    return CheckResult(
        status="pass" if ok else "fail",
        config={"a": A_CONST, "b": B_CONST, "c": C_CONST},
        constants={f"C_{k}": v for k, v in fine.items()},
        residuals={**{f"growth_{k}": g for k, g in growth.items()},
                   "fit_growth_tol": FIT_GROWTH_TOL},
        samples=14,
    )


DECAY_BASE_POINTS = (0.7, 1.3)


@_check(z2_1d="fast vectorized kernel route needs d=1 Z2")
def check_kernel_decay(basis, cfg):
    """|K_j| * (orbit distance)^(2 gamma + d) bounded, stable under refinement.

    Log-spaced separations in [0.1, 10] along both orbit directions; also
    reports how many near-orbit requests were refused by the separation floor.
    """
    power = 2.0 * basis.gamma + basis.rs.dim

    def cfit(n_sep):
        seps = np.geomspace(0.1, 10.0, n_sep)
        best = 0.0
        for x0 in DECAY_BASE_POINTS:
            for direction in (1.0, -1.0):
                X = np.full((n_sep, 1), x0)
                Y = direction * X + direction * seps[:, None]
                md = orbit_distances(basis.rs.group, X, Y)
                K = riesz_kernel_many(basis, 1, X, Y)
                best = _worst(best, np.max(np.abs(K) * md**power))
        return best

    coarse = cfit(cfg.decay_separations)
    fine = cfit(2 * cfg.decay_separations)
    growth = fine / coarse - 1.0
    # the separation floor must refuse, not fabricate
    floor_refused = False
    try:
        riesz_kernel_many(basis, 1, [[1.0]], [[1.0 + 0.1 * SEPARATION_FLOOR]])
    except OrbitTooClose:
        floor_refused = True
    ok = np.isfinite(fine) and growth < FIT_GROWTH_TOL and floor_refused
    return CheckResult(
        status="pass" if ok else "fail",
        config={"separations": "geomspace(0.1, 10)"},
        constants={"C_decay": fine},
        residuals={"growth": growth, "floor_refused": floor_refused,
                   "fit_growth_tol": FIT_GROWTH_TOL},
        samples=2 * cfg.decay_separations * 2 * len(DECAY_BASE_POINTS),
    )


# ---------------------------------------------------------------------------
# Hormander conditions

HORM_Y_BASE = 1.0
HORM_RADIUS = 12.0
HORM_SLOPE_TOL = 0.05
HORM_SE_FRAC = 0.05
# the Monte Carlo estimate must lie within HORM_MC_SIGMAS standard errors
# plus HORM_MC_REL relative of the quadrature value
HORM_MC_SIGMAS = 5.0
HORM_MC_REL = 1e-3


# The one rule of the checks' x-integrals: 16-node Gauss-Legendre on [-1, 1],
# shared read-only and tiled over panels by panel_nodes.
GAUSS_NODES, GAUSS_WEIGHTS = leggauss(16)
GAUSS_NODES.flags.writeable = GAUSS_WEIGHTS.flags.writeable = False


def panel_nodes(breaks):
    """Nodes and weights of the 16-node rule on each panel between breaks."""
    breaks = np.asarray(breaks, dtype=float)
    mid, half = 0.5 * (breaks[:-1] + breaks[1:]), 0.5 * (breaks[1:] - breaks[:-1])
    return ((mid[:, None] + half[:, None] * GAUSS_NODES).ravel(),
            (half[:, None] * GAUSS_WEIGHTS).ravel())


def _refined_breaks(lo: float, hi: float, features, fine: float) -> np.ndarray:
    """Panel breakpoints on [lo, hi], geometrically refined near features."""
    pts = {lo, hi}
    for f in features:
        step = fine
        while step < (hi - lo):
            for p in (f - step, f + step):
                if lo < p < hi:
                    pts.add(p)
            step *= 2.0
        if lo < f < hi:
            pts.add(f)
    return np.array(sorted(pts))


def _region_segments(y: float, delta: float, R: float):
    """Connected pieces of {x : min(|x-y|, |x+y|) > 2 delta} inside [-R, R]."""
    holes = sorted([(y - 2 * delta, y + 2 * delta), (-y - 2 * delta, -y + 2 * delta)])
    segs, lo = [], -R
    for a, c in holes:
        if a > lo:
            segs.append((lo, a))
        lo = max(lo, c)
    if lo < R:
        segs.append((lo, R))
    return segs, [e for h in holes for e in h]


def _kernel_differences(basis, y, y0, X):
    """(|K(x, y) - K(x, y0)| w(x), |K(y, x) - K(y0, x)| w(x)) at the nodes X:
    the direct and the transposed kernel difference, from one panel pass
    per pole."""
    (d, t), (d0, t0) = (riesz_kernel_both(basis, 1, X, np.array([[p]])) for p in (y, y0))
    w = weight(basis.rs, X)
    return np.abs(d - d0) * w, np.abs(t - t0) * w


def hormander_integrals(basis, y, y0):
    """Deterministic panel quadrature of int |K(.,y)-K(.,y0)| w dx over
    {min(|x-y|, |x+y|) > 2|y0-y|}, and of the transposed kernel difference
    on the same nodes.

    Returns the direct value, the transposed value and the number of
    quadrature nodes.  d=1 Z2 only.
    """
    delta = abs(y0 - y)
    R = abs(y) + HORM_RADIUS
    segs, edges = _region_segments(y, delta, R)
    nodes, wts = zip(*(
        panel_nodes(_refined_breaks(a, c, edges, max(delta / 4.0, 1e-3))) for a, c in segs
    ))
    X = np.concatenate(nodes)[:, None]
    W = np.concatenate(wts)
    direct, transposed = _kernel_differences(basis, y, y0, X)
    return float(np.sum(W * direct)), float(np.sum(W * transposed)), X.size


def _hormander_mc(basis, y, y0, cfg, rng):
    """Importance-sampled Monte-Carlo estimates with standard errors, of the
    direct and of the transposed kernel difference: ((est, se), (est, se)).

    Proposal density follows the kernel difference near its pole: distance s
    from the nearest orbit point of y sampled with density ~ s^-p, truncated
    to [2 delta, L]; centers +-y and sides +- chosen uniformly.  Near y != 0
    the measure of a ball of radius s is about s^d |y|^(2 gamma), so the
    difference decays like delta s^-(d+1) there, whatever kappa is: p = d + 1.
    The density does not depend on the orientation, so one sample serves
    both estimates.
    """
    delta = abs(y0 - y)
    p = basis.rs.dim + 1.0
    lo, L = 2.0 * delta, abs(y) + HORM_RADIUS
    n = cfg.horm_mc_samples
    q = 1.0 - p
    s = (lo**q + rng.random(n) * (L**q - lo**q)) ** (1.0 / q)
    center = np.where(rng.random(n) < 0.5, y, -y)
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = center + side * s
    # mixture density over the two centers (both sides fold into |x -+ y|)
    d1, d2 = np.abs(x - y), np.abs(x + y)
    pdf = 0.25 * (_pow_density(d1, p, lo, L) + _pow_density(d2, p, lo, L))
    inside = np.minimum(d1, d2) > lo
    out = []
    for f in _kernel_differences(basis, y, y0, x[:, None]):
        vals = np.where(pdf > 0, f * inside / np.where(pdf > 0, pdf, 1.0), 0.0)
        out.append((float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n))))
    return tuple(out)


def _pow_density(s, p, lo, L):
    """Density ~ s^-p, p > 1, normalized on [lo, L], zero outside."""
    q = 1.0 - p
    dens = abs(q) / abs(L**q - lo**q) * s ** (-p)
    return np.where((s >= lo) & (s <= L), dens, 0.0)


@_check(z2_1d="needs d=1 Z2")
def check_hormander(basis, cfg):
    """Hormander-type conditions for K_j and its transpose.

    For each separation delta the integral over {min_g |g.x - y| > 2 delta}
    of |K(x,y) - K(x,y0)| dmu (and the transposed variant) is estimated by
    deterministic panel quadrature and cross-checked by importance-sampled
    Monte Carlo, one sample per separation for both conditions (SE must be
    < HORM_SE_FRAC of the value).  Pass requires the median-normalized
    regression slope of value against log(1/delta) to stay below
    HORM_SLOPE_TOL for both conditions: bounded, no growth as
    delta -> 0.  The separations should probe the small-delta regime; at
    moderate delta the integrals are still climbing toward their supremum
    and the slope criterion is meaningless.
    """
    rng = np.random.default_rng([cfg.seed, 3])
    y = HORM_Y_BASE
    deltas = np.asarray(cfg.horm_separations, dtype=float)
    rows = {"direct": [], "transposed": []}
    se_ok = True
    mc_consistent = True
    npts = 0
    for delta in deltas:
        *values, used = hormander_integrals(basis, y, y + delta)
        mc = _hormander_mc(basis, y, y + delta, cfg, rng)
        for label, I, (est, se) in zip(rows, values, mc):
            # written so that a NaN fails
            se_ok &= bool(se <= HORM_SE_FRAC * est)
            mc_consistent &= bool(abs(est - I) <= HORM_MC_SIGMAS * se + HORM_MC_REL * I)
            rows[label].append((float(delta), I, est, se))
        npts += used + cfg.horm_mc_samples
    slopes = {}
    for label, data in rows.items():
        vals = np.array([r[1] for r in data])
        xs = np.log(1.0 / deltas)
        A = np.vstack([xs, np.ones_like(xs)]).T
        slope = float(np.linalg.lstsq(A, vals / np.median(vals), rcond=None)[0][0])
        slopes[label] = slope
    ok = se_ok and mc_consistent and all(s <= HORM_SLOPE_TOL for s in slopes.values())
    return CheckResult(
        status="pass" if ok else "fail",
        config={"separations": deltas.tolist(), "y": y},
        constants={
            "slope_direct": slopes["direct"],
            "slope_transposed": slopes["transposed"],
            "sup_direct": max(r[1] for r in rows["direct"]),
            "sup_transposed": max(r[1] for r in rows["transposed"]),
        },
        residuals={
            "mc_se_ok": se_ok,
            "mc_consistent": mc_consistent,
            "table_direct": [list(r) for r in rows["direct"]],
            "table_transposed": [list(r) for r in rows["transposed"]],
            "horm_slope_tol": HORM_SLOPE_TOL,
            "horm_se_frac": HORM_SE_FRAC,
            "horm_mc_sigmas": HORM_MC_SIGMAS,
            "horm_mc_rel": HORM_MC_REL,
        },
        samples=npts,
    )


# ---------------------------------------------------------------------------
# operator checks

RIESZ_NORM_TOL = 1e-8
ADJOINT_TOL = 1e-10


@_check()
def check_riesz_l2(basis, cfg):
    """Riesz transform L2 package: norm <= sqrt(2), adjointness, and the
    two-term inequality |R v|^2 + |R* v|^2 <= 2 |v|^2 on safe shells."""
    d = basis.rs.dim
    safe = basis.N - 1
    worst_norm = 0.0
    worst_adj = 0.0
    worst_pair = 0.0
    rng = np.random.default_rng([cfg.seed, 4])
    for j in range(1, d + 1):
        R = riesz_matrix(basis, j)
        Rs = riesz_matrix(basis, j, adjoint=True)
        worst_norm = _worst(worst_norm, operator_norm(R))
        D = delta_matrix(basis, j, "lower")
        Dr = delta_matrix(basis, j, "raise")
        # adjointness on every entry the truncation leaves intact
        rows = [i for i, n in enumerate(basis.indices) if sum(n) <= safe]
        worst_adj = _worst(worst_adj, np.max(np.abs(D.values - Dr.values.T)[rows, :]))
        A = R.restrict_columns(safe)
        B = Rs.restrict_columns(safe)
        for _ in range(cfg.norm_vectors):
            v = rng.normal(size=A.shape[1])
            v /= np.linalg.norm(v)
            worst_pair = _worst(worst_pair, np.linalg.norm(A @ v) ** 2 + np.linalg.norm(B @ v) ** 2)
    ok = (
        worst_norm <= math.sqrt(2.0) + RIESZ_NORM_TOL
        and worst_adj <= ADJOINT_TOL
        and worst_pair <= 2.0 + RIESZ_NORM_TOL
    )
    return CheckResult(
        status="pass" if ok else "fail",
        constants={"max_norm": worst_norm, "max_pair_sum": worst_pair},
        residuals={"adjoint_residual": worst_adj, "riesz_norm_tol": RIESZ_NORM_TOL,
                   "adjoint_tol": ADJOINT_TOL},
        samples=d * cfg.norm_vectors,
    )


def _bump(y, lo, hi):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = (y > lo) & (y < hi)
    out[m] = np.exp(-1.0 / ((y[m] - lo) * (hi - y[m])))
    return out


def _riesz_1d(kap, coeffs):
    """Rank-one Riesz transform on Hermite coefficients f_0..f_n: entry n-1 of
    the result is lambda_n^(-1/2) sqrt(2(n + 2 kappa [n odd])) f_n."""
    n = np.arange(len(coeffs))
    ladder = np.sqrt(2.0 * (n + 2.0 * kap * (n % 2)))
    lam = 2.0 * n + 2.0 * kap + 1.0
    return lam[1:] ** -0.5 * coeffs[1:] * ladder[1:]


IO_POINTS = (0.2, 0.5, 1.0)
IO_TOL = 1e-3
IO_SUPPORT = (2.0, 3.0)
IO_DEGREE = 3000                  # spectral truncation for the 1-D route
IO_PANELS = 15                    # 16-node panels on IO_SUPPORT


@_check(z2_1d="needs d=1 Z2")
def check_integral_representation(basis, cfg):
    """Spectral route vs kernel quadrature for a bump supported off the orbit.

    d=1 Z2 only.  The spectral route uses the per-degree ladder action (the
    matrix realization collapses to it in one dimension; the two are checked
    against each other at the basis truncation) carried to IO_DEGREE terms:
    the bump's Hermite coefficients decay like exp(-c n^(1/3)), so reaching
    the IO_TOL agreement against the kernel route needs a few thousand terms,
    far beyond any polynomial-basis truncation.  Also reports the agreement
    at the basis truncation for reference.
    """
    kap = float(z2_evaluator(basis).kappas[0])
    lo, hi = IO_SUPPORT
    for x in IO_POINTS:
        if min(abs(x - lo), abs(x + hi)) < 1e-12 or (lo <= abs(x) <= hi):
            raise SupportOverlap(f"orbit of x={x} meets supp f = [{lo}, {hi}]")
    yq, wq = panel_nodes(np.linspace(lo, hi, IO_PANELS + 1))
    wk = weight(basis.rs, yq[:, None])
    fv = _bump(yq, lo, hi)
    hv = hermite_functions_1d(kap, IO_DEGREE, yq)
    Rf = _riesz_1d(kap, hv @ (wq * fv * wk))
    worst = 0.0
    worst_at_basis_n = 0.0
    per_point = {}
    for x, hx in zip(IO_POINTS, hermite_functions_1d(kap, IO_DEGREE, np.array(IO_POINTS)).T):
        terms = Rf * hx[:-1]
        spectral = float(np.sum(terms))
        spectral_basis = float(np.sum(terms[: basis.N]))
        Kv = riesz_kernel_many(basis, 1, np.array([[x]]), yq[:, None])
        kernel_route = float(np.sum(wq * Kv * fv * wk))
        rel = abs(spectral - kernel_route) / abs(kernel_route)
        worst = _worst(worst, rel)
        worst_at_basis_n = _worst(
            worst_at_basis_n, abs(spectral_basis - kernel_route) / abs(kernel_route)
        )
        per_point[f"x={x}"] = {
            "spectral": spectral,
            "kernel": kernel_route,
            "rel_err": rel,
        }
    ok = worst < IO_TOL
    return CheckResult(
        status="pass" if ok else "fail",
        config={"io_degree": IO_DEGREE, "points": list(IO_POINTS)},
        residuals={
            "max_rel_err": worst,
            "rel_err_at_basis_truncation": worst_at_basis_n,
            **per_point,
            "io_tol": IO_TOL,
        },
        samples=len(IO_POINTS),
    )


LP_EXPONENTS = (1.5, 2.0, 3.0, 4.0)
LP_DEGREE = 20
LP_GRID_HALF_WIDTH = 12.0
LP_GRID_POINTS = 4801
LP_P2_SLACK = 0.05
LP_MEDIAN_RATIO = 10.0            # max ratio below this multiple of the median


@_check(z2_1d="needs d=1 Z2")
def check_lp_empirical(basis, cfg):
    """SOFT EVIDENCE for Lp boundedness: |R f|_p / |f|_p over random
    band-limited f.  Not a proof and explicitly labeled as such; at p = 2 the
    max ratio must respect the sqrt(2) bound up to quadrature slack."""
    kap = float(z2_evaluator(basis).kappas[0])
    deg = min(LP_DEGREE, basis.N - 1)
    rng = np.random.default_rng([cfg.seed, 5])
    xs = np.linspace(-LP_GRID_HALF_WIDTH, LP_GRID_HALF_WIDTH, LP_GRID_POINTS)
    wk = weight(basis.rs, xs[:, None])
    hv = hermite_functions_1d(kap, deg + 1, xs)
    ratios = {p: [] for p in LP_EXPONENTS}
    for _ in range(cfg.lp_samples):
        v = rng.normal(size=deg + 1)
        f = v @ hv[: deg + 1]
        Rf = _riesz_1d(kap, v) @ hv[: deg]
        for p in LP_EXPONENTS:
            nf = np.trapezoid(np.abs(f) ** p * wk, xs) ** (1.0 / p)
            nrf = np.trapezoid(np.abs(Rf) ** p * wk, xs) ** (1.0 / p)
            ratios[p].append(nrf / nf)
    stats = {}
    ok = True
    for p, vals in ratios.items():
        vals = np.array(vals)
        stats[f"p={p}_max"] = float(np.max(vals))
        stats[f"p={p}_median"] = float(np.median(vals))
        ok &= bool(np.max(vals) < LP_MEDIAN_RATIO * np.median(vals))  # NaN fails
    ok &= stats["p=2.0_max"] <= math.sqrt(2.0) + LP_P2_SLACK
    return CheckResult(
        status="pass" if ok else "fail",
        config={"exponents": list(LP_EXPONENTS), "degree": deg},
        constants=stats,
        residuals={"lp_p2_slack": LP_P2_SLACK, "lp_median_ratio": LP_MEDIAN_RATIO},
        samples=cfg.lp_samples * len(LP_EXPONENTS),
        notes="SOFT EVIDENCE: Lp boundedness is not numerically provable",
    )


# ---------------------------------------------------------------------------
# orchestration

ALL_CHECKS = {
    "eigen": check_eigen,
    "mehler": check_mehler,
    "heat": check_heat,
    "lemma_bounds": check_lemma_bounds,
    "kernel_decay": check_kernel_decay,
    "hormander": check_hormander,
    "riesz_l2": check_riesz_l2,
    "integral_representation": check_integral_representation,
    "lp_empirical": check_lp_empirical,
}


def run_checks(basis: HermiteBasis, names=None,
               cfg: VerifyConfig = DEFAULT_VERIFY) -> VerificationReport:
    names = list(ALL_CHECKS) if names is None else list(names)
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    results = [ALL_CHECKS[name](basis, cfg) for name in names]
    return VerificationReport(
        checks=results,
        config={**_summary(basis), "seed": cfg.seed, "checks": names,
                "payload_version": PAYLOAD_VERSION},
    )
