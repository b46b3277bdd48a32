import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from dunklriesz.hermite import build_basis
from dunklriesz.reflection import reflect, root_system
from dunklriesz.verify import (
    ALL_CHECKS,
    FIT_BOX,
    FIT_T_MIN,
    HORM_SLOPE_TOL,
    LEMMA_RATIOS,
    LemmaPieces,
    VerifyConfig,
    _lemma_bound_fits,
    _polish,
    check_eigen,
    check_heat,
    check_hormander,
    check_integral_representation,
    check_kernel_decay,
    check_lp_empirical,
    check_mehler,
    check_riesz_l2,
    run_checks,
)

FAST = VerifyConfig(
    fit_t_points=6,
    fit_t_large_points=4,
    fit_grid_points=7,
    fit_ridge_points=9,
    horm_separations=(0.005, 0.01, 0.02),
    horm_mc_samples=1500,
    decay_separations=6,
    lp_samples=10,
    norm_vectors=8,
)


def test_check_eigen_pass(z2_half_basis8):
    r = check_eigen(z2_half_basis8)
    assert r.status == "pass"
    assert r.residuals["max_residual"] == 0.0


def test_check_eigen_float_mode():
    rs = root_system("i2(5)", multiplicity=1.0)
    r = check_eigen(build_basis(rs, 4))
    assert r.status == "pass"
    assert 0 <= r.residuals["max_residual"] < 1e-10


@pytest.fixture(scope="module")
def a2_basis2(a2_one):
    return build_basis(a2_one, 2)


# the structural skips on a group that is not Z2^d, with each check's note
A2_SKIP_NOTES = {
    "mehler": "independent evaluator needs Z2^d",
    "heat": "series oracle needs Z2^d",
    "lemma_bounds": "closed-form kernels need Z2^d",
    "kernel_decay": "fast vectorized kernel route needs d=1 Z2",
    "hormander": "needs d=1 Z2",
    "integral_representation": "needs d=1 Z2",
    "lp_empirical": "needs d=1 Z2",
}


@pytest.mark.parametrize("name", list(A2_SKIP_NOTES))
def test_check_skip_non_z2(a2_basis2, name):
    r = ALL_CHECKS[name](a2_basis2, FAST)
    assert r.status == "skip"
    assert r.notes == A2_SKIP_NOTES[name]
    assert r.seed == FAST.seed
    assert r.config == {"group": "a2", "dim": 2, "kappa": [1.0, 1.0, 1.0],
                        "degree": 2, "exact": True}


def test_check_mehler_skip_below_degree_12(z2_half_basis8):
    r = check_mehler(z2_half_basis8, FAST)
    assert (r.status, r.notes) == ("skip", "truncation below the N >= 12 contract")


@pytest.fixture(scope="module")
def lemma_bases(z2_half_basis8, z2sq_ones):
    return z2_half_basis8, build_basis(z2sq_ones, 2)


@pytest.fixture(scope="module")
def lemma_points(lemma_bases):
    rng = np.random.default_rng(7)
    out = []
    for basis in lemma_bases:
        d = basis.rs.dim
        out.append((basis, rng.uniform(-2.0, 2.0, (16, d)), rng.uniform(-2.0, 2.0, (16, d))))
    return out


@pytest.fixture(scope="module")
def mixed_t_rows(lemma_bases):
    """Rows with a t of their own, small and large, on both sides of the
    polish fence: t from 2e-5 to 12 (the fence keeps 1e-4 .. 8) and
    coordinates up to 6 (it keeps |x|, |y| <= 2 FIT_BOX = 5)."""
    rng = np.random.default_rng(11)
    out = []
    for basis in lemma_bases:
        d = basis.rs.dim
        t = rng.permutation(np.geomspace(2e-5, 12.0, 24))
        out.append((basis, t, rng.uniform(-6.0, 6.0, (24, d)), rng.uniform(-6.0, 6.0, (24, d))))
    return out


@pytest.mark.parametrize("name", list(LEMMA_RATIOS))
def test_lemma_ratio_shared_pieces_match_fresh(lemma_points, mixed_t_rows, name):
    """A pieces object that already served the other 13 ratios gives the
    same value, bit for bit, as a fresh one, with one t or a t per row."""
    t_one = 0.3 if "_small_" in name else 2.0
    batches = [(basis, t_one, X, Y) for basis, X, Y in lemma_points] + mixed_t_rows
    for basis, t, X, Y in batches:
        with np.errstate(divide="ignore", invalid="ignore"):
            shared = LemmaPieces(basis, t, X, Y)
            for other, ratio in LEMMA_RATIOS.items():
                if other != name:
                    ratio(shared)
            fresh = LemmaPieces(basis, t, X, Y)
            np.testing.assert_array_equal(LEMMA_RATIOS[name](shared), LEMMA_RATIOS[name](fresh))


def test_reflected_pairs_match_reflected_points(lemma_points):
    """The pair terms that tau_sum takes for each root, the shared pairs
    with x_j y_j negated, are those of the reflected points bit for bit."""
    for basis, X, Y in lemma_points:
        p = LemmaPieces(basis, 0.3, X, Y)
        for alpha in p.roots:
            want = p.ev._pairs(reflect(alpha, X), Y)
            assert p.ev._reflected_pairs(p.pairs, alpha).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(LEMMA_RATIOS))
def test_lemma_ratio_per_row_t_matches_scalar(mixed_t_rows, name):
    """One LemmaPieces over rows with mixed t equals, row by row and bit for
    bit, a pieces object built for that row alone at its float t."""
    for basis, t, X, Y in mixed_t_rows:
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = LEMMA_RATIOS[name](LemmaPieces(basis, t, X, Y))
            rows = [LEMMA_RATIOS[name](LemmaPieces(basis, float(ti), X[i : i + 1],
                                                   Y[i : i + 1]))[0]
                    for i, ti in enumerate(t)]
        np.testing.assert_array_equal(batch, rows)


def _scipy_polish(basis, name, seed, fenced):
    """One polish run as scipy.optimize.minimize runs it, one LemmaPieces at
    a float t per evaluation; appends each fenced point to `fenced`."""
    t0, x0, y0 = seed
    lo, hi = (math.log(FIT_T_MIN / 10.0), 0.0) if "_small_" in name else (0.0, math.log(8.0))
    d = x0.size

    def neg(z):
        if not (lo <= z[0] <= hi) or np.any(np.abs(z[1:]) > 2.0 * FIT_BOX):
            fenced.append(z)
            return 1e9
        with np.errstate(divide="ignore", invalid="ignore"):
            val = LEMMA_RATIOS[name](LemmaPieces(basis, math.exp(z[0]), z[None, 1 : 1 + d],
                                                 z[None, 1 + d :]))
        v = float(val[0])
        return 1e9 if not np.isfinite(v) else -v

    return minimize(neg, np.concatenate([[math.log(t0)], x0, y0]), method="Nelder-Mead",
                    options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10})


# per basis, refinement -> ratios: on both the 3-D (z2) and the 5-D (z2^2)
# simplex the coarse classical_small_iii runs hit the fence, shrink, and stop
# on the 400-iteration cap; on z2 a refined classical_large_v run makes an
# outside contraction that ties the reflect point, which tells scipy's `<=`
# there from `<`
ORACLE_RUNS = [
    {1: ("classical_small_iii", "reflected_small_i", "dunkl_large_vi"),
     2: ("classical_large_v",)},
    {1: ("classical_small_iii",)},
]


@pytest.mark.parametrize("which", [0, 1], ids=["z2", "z2^2"])
def test_polish_lockstep_matches_scipy(lemma_bases, which):
    """Every lockstep run gives scipy's Nelder-Mead x, fun, nfev and nit,
    bit for bit."""
    basis = lemma_bases[which]
    runs = []
    for refine, names in ORACLE_RUNS[which].items():
        fit = _lemma_bound_fits(basis, FAST, refine)
        runs += [(name, seed) for name in names for seed in fit[name][1]]
    got = _polish(basis, runs)
    fenced = []
    for i, (name, seed) in enumerate(runs):
        ref = _scipy_polish(basis, name, seed, fenced)
        np.testing.assert_array_equal(got.x[i], ref.x)
        assert (got.fun[i], got.nfev[i], got.nit[i]) == (ref.fun, ref.nfev, ref.nit)
    assert fenced and got.shrinks.any() and (got.nit == 400).any()


def test_check_mehler_n12_fails_at_half(z2_half):
    """At the (N=12, r=0.5) corner the truncation tail is ~1e-4; the strict
    1e-6 tolerance cannot hold.  See the acceptance suite for the resolution."""
    r = check_mehler(build_basis(z2_half, 12), FAST)
    assert r.status == "fail"
    assert 1e-5 < r.residuals["max_rel_err"] < 1e-3


def test_check_mehler_nan_residual_fails(z2_half):
    """At r = 0.999 the closed form overflows to inf * 0 = NaN; the NaN is
    carried to max_rel_err, and the check fails instead of passing, with no
    numpy RuntimeWarning let out."""
    basis, cfg = build_basis(z2_half, 12), replace(FAST, mehler_r_values=(0.1, 0.999))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = check_mehler(basis, cfg)
    assert r.status == "fail"
    assert math.isnan(r.residuals["max_rel_err"])


def test_check_mehler_n24_passes(z2_half):
    r = check_mehler(build_basis(z2_half, 24), FAST)
    assert r.status == "pass"


def test_check_heat(z2_half_basis8):
    r = check_heat(z2_half_basis8, FAST)
    assert r.status == "pass"
    assert r.residuals["printed_constant_min_rel_err"] > 0.9  # 2^{1} - 1


def test_check_riesz_l2(z2_half_basis8):
    r = check_riesz_l2(z2_half_basis8, FAST)
    assert r.status == "pass"
    assert r.constants["max_norm"] <= math.sqrt(2) + 1e-8


def test_check_kernel_decay(z2_half_basis8):
    r = check_kernel_decay(z2_half_basis8, FAST)
    assert r.status == "pass"
    assert r.residuals["floor_refused"] is True


def test_check_integral_representation(z2_half_basis8):
    r = check_integral_representation(z2_half_basis8, FAST)
    assert r.status == "pass"
    assert r.residuals["max_rel_err"] < 1e-3
    # the N=8 truncation is nowhere near converged; recorded for reference
    assert r.residuals["rel_err_at_basis_truncation"] > 0.1


def test_check_lp(z2_half_basis8):
    r = check_lp_empirical(z2_half_basis8, FAST)
    assert r.status == "pass"
    assert r.constants["p=2.0_max"] <= math.sqrt(2) + 0.05
    assert "SOFT EVIDENCE" in r.notes


def test_check_hormander_fast(z2_half_basis8):
    r = check_hormander(z2_half_basis8, FAST)
    assert r.status == "pass"
    assert r.constants["slope_direct"] <= HORM_SLOPE_TOL
    assert r.residuals["mc_se_ok"] and r.residuals["mc_consistent"]


@pytest.mark.parametrize("kappa,seed", [(0, s) for s in range(1, 7)] + [(1, 3)])
def test_check_hormander_proposal_fits_the_pole(kappa, seed):
    """The s^-(d+1) proposal follows the kernel difference near its pole at
    every kappa: where the old s^-(2 gamma + d) proposal missed HORM_SE_FRAC
    (kappa = 0 at seeds 2 and 6, kappa = 1 at seed 3), every standard error
    stays under half of it."""
    from dunklriesz.verify import HORM_SE_FRAC

    basis = build_basis(root_system("z2", multiplicity=kappa), 2, exact=False)
    r = check_hormander(basis, VerifyConfig(seed=seed))
    assert r.status == "pass"
    for table in ("table_direct", "table_transposed"):
        assert all(se < 0.5 * HORM_SE_FRAC * est for _, _, est, se in r.residuals[table])


def test_nan_monte_carlo_and_lp_ratios_fail(z2_half_basis8, monkeypatch):
    """A NaN Monte Carlo estimate fails both Hormander gates, and NaN Lp
    ratios fail the Lp check: each gate is written so that NaN fails."""
    from dunklriesz import verify

    nan = (math.nan, math.nan)
    monkeypatch.setattr(verify, "_hormander_mc", lambda *args: (nan, nan))
    r = check_hormander(z2_half_basis8, FAST)
    assert r.status == "fail"
    assert r.residuals["mc_se_ok"] is False and r.residuals["mc_consistent"] is False
    monkeypatch.setattr(verify, "_riesz_1d", lambda kap, coeffs: np.full(len(coeffs) - 1, math.nan))
    assert check_lp_empirical(z2_half_basis8, FAST).status == "fail"


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_hormander_quadrature_shares_both_orientations(kappa, monkeypatch):
    """hormander_integrals takes the direct and the transposed quadrature
    from one panel pass per pole; a reference that evaluates each
    orientation separately, on the same nodes, agrees: the direct value bit
    for bit, the transposed one to rounding.  The integrand differences two
    kernels delta apart next to their pole, which magnifies the kernels'
    rounding as delta shrinks: 1.6e-11 relative at delta = 1e-3, 1.8e-14 at
    2e-2."""
    from dunklriesz import verify
    from dunklriesz.kernels import riesz_kernel_many

    basis = build_basis(root_system("z2", multiplicity=kappa), 2, exact=False)
    shared = [verify.hormander_integrals(basis, 1.0, 1.0 + d) for d in (0.001, 0.02)]

    def separately(basis, j, X, Y):
        return riesz_kernel_many(basis, j, X, Y), riesz_kernel_many(basis, j, Y, X)

    monkeypatch.setattr(verify, "riesz_kernel_both", separately)
    for d, (direct, transposed, nodes) in zip((0.001, 0.02), shared):
        ref_direct, ref_transposed, ref_nodes = verify.hormander_integrals(basis, 1.0, 1.0 + d)
        assert nodes == ref_nodes > 0
        assert direct == ref_direct
        assert transposed == pytest.approx(ref_transposed, rel=1e-16 / d**2)


def test_panel_nodes_share_one_read_only_rule():
    """Every panel takes the one 16-node Gauss-Legendre rule, read-only."""
    from numpy.polynomial.legendre import leggauss

    from dunklriesz import verify

    breaks = [0.0, 0.25, 0.5, 1.0]
    nodes, weights = verify.panel_nodes(breaks)
    assert not verify.GAUSS_NODES.flags.writeable and not verify.GAUSS_WEIGHTS.flags.writeable
    fresh_x, fresh_w = leggauss(16)
    want_n = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * fresh_x
                             for a, b in zip(breaks[:-1], breaks[1:])])
    want_w = np.concatenate([0.5 * (b - a) * fresh_w for a, b in zip(breaks[:-1], breaks[1:])])
    assert nodes.tobytes() == want_n.tobytes() and weights.tobytes() == want_w.tobytes()


def _spy_kernel_differences(monkeypatch):
    """Record the nodes and the result of every verify._kernel_differences call."""
    from dunklriesz import verify

    calls = []
    real = verify._kernel_differences

    def spy(basis, y, y0, X):
        out = real(basis, y, y0, X)
        calls.append((X[:, 0].copy(), out))
        return out

    monkeypatch.setattr(verify, "_kernel_differences", spy)
    return calls


def test_check_hormander_one_pass_per_separation(z2_half_basis8, monkeypatch):
    """Per separation, one quadrature pass and then one Monte Carlo pass,
    whose sample serves both orientations; `samples` counts each quadrature
    node and each Monte Carlo point once."""
    from dunklriesz.verify import hormander_integrals

    seps, n = FAST.horm_separations, FAST.horm_mc_samples
    nodes = [hormander_integrals(z2_half_basis8, 1.0, 1.0 + d)[2] for d in seps]
    calls = _spy_kernel_differences(monkeypatch)
    r = check_hormander(z2_half_basis8, FAST)
    assert [x.size for x, _ in calls] == [m for k in nodes for m in (k, n)]
    assert r.samples == sum(nodes) + len(seps) * n
    assert len(r.residuals["table_direct"]) == len(r.residuals["table_transposed"]) == len(seps)


def test_hormander_mc_one_sample_for_both_orientations(z2_half_basis8, monkeypatch):
    """The sample is drawn from the s^-p proposal around +-y as documented,
    and each orientation's (est, se) is the plain importance-sampling
    estimator over it: mean and standard error of f / pdf, with f the kernel
    difference inside the region and 0 outside."""
    from dunklriesz.verify import HORM_RADIUS, _hormander_mc

    calls = _spy_kernel_differences(monkeypatch)
    y, delta, n = 1.0, 0.01, FAST.horm_mc_samples
    mc = _hormander_mc(z2_half_basis8, y, y + delta, FAST, np.random.default_rng(5))
    (x, diffs), = calls
    # d = 1: p = d + 1 = 2, so the proposal's inverse cdf
    # is s = 1 / (1/lo - u (1/lo - 1/L))
    lo, L = 2.0 * delta, y + HORM_RADIUS
    rng = np.random.default_rng(5)
    u, centers, sides = rng.random(n), rng.random(n), rng.random(n)
    s = 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / L))
    want_x = np.where(centers < 0.5, y, -y) + np.where(sides < 0.5, 1.0, -1.0) * s
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-13)

    def density(t):
        return np.where((t >= lo) & (t <= L), 1.0 / (1.0 / lo - 1.0 / L) / t**2, 0.0)

    pdf = 0.25 * (density(np.abs(x - y)) + density(np.abs(x + y)))
    inside = np.minimum(np.abs(x - y), np.abs(x + y)) > lo
    assert len(mc) == len(diffs) == 2
    for (est, se), f in zip(mc, diffs):
        vals = np.where(inside, f / pdf, 0.0)
        assert est == pytest.approx(np.mean(vals), rel=1e-13)
        assert se == pytest.approx(np.std(vals, ddof=1) / math.sqrt(n), rel=1e-12)


def _verdict(entry) -> str:
    """A check's status re-derived from its report entry alone: the values
    it measured against the gates it records.  A skipped check measures
    nothing."""
    c, k, r = entry["config"], entry["constants"], entry["residuals"]
    if not (k or r):
        return "skip"
    name = entry["name"]
    if name == "eigen":
        ok = r["exact_failures"] == 0 if c["exact"] else r["max_residual"] < r["eigen_tol"]
    elif name == "mehler":
        ok = r["max_rel_err"] < r["tolerance"]
    elif name == "heat":
        ok = (r["series_vs_closed"] < r["heat_tol"]
              and r["classical_reduction"] < r["heat_classical_tol"]
              and r["symmetry"] < r["heat_symmetry_tol"]
              and r["printed_constant_factor_err"] < r["heat_factor_tol"]
              and r["printed_constant_min_rel_err"] > r["heat_tol"])
    elif name == "lemma_bounds":
        growth = [v for key, v in r.items() if key.startswith("growth_")]
        ok = (len(growth) == len(k) == 14 and all(map(math.isfinite, k.values()))
              and all(g < r["fit_growth_tol"] for g in growth))
    elif name == "kernel_decay":
        ok = (math.isfinite(k["C_decay"]) and r["growth"] < r["fit_growth_tol"]
              and r["floor_refused"])
    elif name == "hormander":
        rows = r["table_direct"] + r["table_transposed"]
        ok = (all(se <= r["horm_se_frac"] * est for _, _, est, se in rows)
              and all(abs(est - I) <= r["horm_mc_sigmas"] * se + r["horm_mc_rel"] * I
                      for _, I, est, se in rows)
              and k["slope_direct"] <= r["horm_slope_tol"]
              and k["slope_transposed"] <= r["horm_slope_tol"])
    elif name == "riesz_l2":
        ok = (k["max_norm"] <= math.sqrt(2.0) + r["riesz_norm_tol"]
              and r["adjoint_residual"] <= r["adjoint_tol"]
              and k["max_pair_sum"] <= 2.0 + r["riesz_norm_tol"])
    elif name == "integral_representation":
        ok = r["max_rel_err"] < r["io_tol"]
    elif name == "lp_empirical":
        ok = (all(k[key] < r["lp_median_ratio"] * k[key.replace("_max", "_median")]
                  for key in k if key.endswith("_max"))
              and k["p=2.0_max"] <= math.sqrt(2.0) + r["lp_p2_slack"])
    return "pass" if ok else "fail"


def test_report_entries_carry_their_gates(z2_half, a2_basis2):
    """Every check's status follows from its report entry alone, on z2 at
    N = 12 (mehler fails there by design) and on a2, where seven checks
    skip; the report states its payload revision."""
    for basis, skipped in ((build_basis(z2_half, 12), 0), (a2_basis2, 7)):
        data = json.loads(run_checks(basis, None, FAST).to_json())
        assert data["config"]["payload_version"] == 6
        statuses = [c["status"] for c in data["checks"]]
        assert statuses.count("skip") == skipped and statuses.count("pass") >= 2
        assert [_verdict(c) for c in data["checks"]] == statuses


def test_run_checks_report_structure(z2_half_basis8):
    rep = run_checks(z2_half_basis8, ["eigen", "heat"], FAST)
    assert [c.name for c in rep.checks] == ["eigen", "heat"]
    data = json.loads(rep.to_json())
    assert {c["name"] for c in data["checks"]} == {"eigen", "heat"}
    for c in data["checks"]:
        for key in ("name", "status", "config", "constants", "residuals",
                    "samples", "seed", "runtime_ms"):
            assert key in c
    csv_text = rep.constants_csv()
    assert csv_text.splitlines()[0] == "check,constant,value"


def test_unknown_check_rejected(z2_half_basis8):
    with pytest.raises(ValueError):
        run_checks(z2_half_basis8, ["nope"], FAST)


def test_report_deterministic(z2_half_basis8):
    """Identical config + seed implies identical canonical payload
    (wall times excluded)."""
    names = ["eigen", "heat", "lp_empirical"]
    rep1 = run_checks(z2_half_basis8, names, FAST)
    rep2 = run_checks(z2_half_basis8, names, FAST)
    p1 = json.dumps(rep1.canonical_payload(), sort_keys=True)
    p2 = json.dumps(rep2.canonical_payload(), sort_keys=True)
    assert p1 == p2


def test_seed_changes_sampled_checks(z2_half_basis8):
    r1 = check_lp_empirical(z2_half_basis8, FAST)
    r2 = check_lp_empirical(z2_half_basis8, replace(FAST, seed=FAST.seed + 1))
    assert r1.constants["p=2.0_max"] != r2.constants["p=2.0_max"]


def test_all_checks_registered():
    assert set(ALL_CHECKS) == {
        "eigen", "mehler", "heat", "lemma_bounds", "kernel_decay",
        "hormander", "riesz_l2", "integral_representation", "lp_empirical",
    }
