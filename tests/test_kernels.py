import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, i0e, i1e, ive

from dunklriesz import kernels
from dunklriesz.hermite import build_basis
from dunklriesz.kernels import (
    KernelConfig,
    OrbitTooClose,
    SeriesNonConvergence,
    TruncationTooCoarse,
    WrongGroup,
    dlog_dunkl_kernel_1d,
    dunkl_kernel,
    dunkl_kernel_1d,
    dunkl_kernel_mehler,
    dunkl_kernel_z2d,
    gaussian_translate,
    heat_kernel,
    heat_kernel_classical,
    heat_kernel_series,
    log_dunkl_kernel_1d,
    riesz_kernel,
    riesz_kernel_both,
    riesz_kernel_many,
    z2_evaluator,
)
from dunklriesz.reflection import orbit_distances, root_system


def series_oracle(kappa: Fraction, u: Fraction, v: Fraction, terms=60) -> float:
    """Independent exact-rational run of the defining recursion."""
    a, tot = Fraction(1), Fraction(1)
    for n in range(1, terms):
        a = a * v / (n + 2 * kappa * (n % 2))
        tot += a * u**n
    return float(tot)


def test_series_normalization():
    assert dunkl_kernel_1d(0.7, 5.0, 0.0) == pytest.approx(1.0)
    assert dunkl_kernel_1d(0.7, 0.0, 5.0) == pytest.approx(1.0)


def test_series_classical():
    assert dunkl_kernel_1d(0.0, 1.3, 2.1) == pytest.approx(math.exp(1.3 * 2.1), rel=1e-12)


def test_series_half_at_one():
    # first coefficients 1/2, 1/4, 1/16, 1/64 and the summed value
    val = dunkl_kernel_1d(0.5, 1.0, 1.0)
    oracle = series_oracle(Fraction(1, 2), Fraction(1), Fraction(1))
    assert val == pytest.approx(oracle, rel=1e-13)
    a = [Fraction(1)]
    for n in range(1, 5):
        a.append(a[-1] * 1 / (n + 2 * Fraction(1, 2) * (n % 2)))
    assert a[1:] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)]


def test_series_cap_raises():
    with pytest.raises(SeriesNonConvergence):
        dunkl_kernel_1d(0.5, 10.0, 10.0, terms=64)


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("w", [-40.0, -3.0, 0.0, 0.5, 7.0, 30.0])
def test_log_kernel_vs_series(kappa, w):
    sv = dunkl_kernel_1d(kappa, 1.0, w, terms=300)
    assert math.exp(float(log_dunkl_kernel_1d(kappa, w))) == pytest.approx(sv, rel=5e-11)


def test_log_kernel_extreme_arguments_finite():
    for w in [1e8, 1e12, 1e300, -1e8, -1e12, -1e300, 0.0]:
        for k in [0.3, 0.5, 2.0]:
            assert np.isfinite(log_dunkl_kernel_1d(k, w))
            assert np.isfinite(dlog_dunkl_kernel_1d(k, w))


def test_dlog_matches_numerical_derivative():
    for kappa in (0.5, 1.3):
        for w in (-50.0, -1.0, 0.0, 3.0, 2e5):
            h = max(1e-6, abs(w) * 1e-7)
            num = (
                float(log_dunkl_kernel_1d(kappa, w + h))
                - float(log_dunkl_kernel_1d(kappa, w - h))
            ) / (2 * h)
            assert float(dlog_dunkl_kernel_1d(kappa, w)) == pytest.approx(num, rel=1e-5, abs=1e-7)


def test_bessel_pair_order_zero_matches_ive():
    x = np.geomspace(1e-8, 1e5, 20001)
    i0, i1 = kernels._bessel_pair(0.0, x)
    assert np.array_equal(i0, i0e(x)) and np.array_equal(i1, i1e(x))
    assert np.max(np.abs(i0 / ive(0.0, x) - 1.0)) <= 1e-14
    assert np.max(np.abs(i1 / ive(1.0, x) - 1.0)) <= 1e-14


@pytest.fixture(scope="module")
def half_kappa_reference():
    """log E and E'/E at kappa = 1/2 from mpmath's 0F1 form,
    E(w) = 0F1(; b; w^2/4) + (w / 2b) 0F1(; b + 1; w^2/4) with b = kappa + 1/2."""
    mp = pytest.importorskip("mpmath")
    g = np.geomspace(1e-6, 1e7, 1000)
    # at |w| = 5e-324, |w|/2 underflows to 0, and 0 * log 0 was NaN
    w = np.concatenate([g, -g, [5e-324, -5e-324]])
    log_e, dlog_e = [], []
    with mp.workdps(40):
        b = mp.mpf(1)
        for wi in w:
            v = mp.mpf(wi)
            z = v * v / 4
            f0, f1, f2 = mp.hyp0f1(b, z), mp.hyp0f1(b + 1, z), mp.hyp0f1(b + 2, z)
            e = f0 + v / (2 * b) * f1
            de = (v / (2 * b) + 1 / (2 * b)) * f1 + v * v / (4 * b * (b + 1)) * f2
            log_e.append(float(mp.log(e)))
            dlog_e.append(float(de / e))
    return w, np.array(log_e), np.array(dlog_e)


def test_log_kernel_half_matches_mpmath(half_kappa_reference):
    # log E is about |w|, so the bound scales with max(1, |w|)
    w, ref, _ = half_kappa_reference
    assert w.size >= kernels.BAND_MIN
    err = np.abs(log_dunkl_kernel_1d(0.5, w) - ref) / np.maximum(1.0, np.abs(w))
    assert err.max() <= 4e-15


def test_dlog_kernel_half_matches_mpmath(half_kappa_reference):
    """On the Bessel band E'/E forms I_0 - I_1, which cancels as |w| grows;
    past the Hankel switch the minus branch has its own sum, and the error
    is absolute (4.4e-16 measured), also on 0-d inputs past 1e5."""
    w, _, ref = half_kappa_reference
    err = np.abs(dlog_dunkl_kernel_1d(0.5, w) - ref)
    hankel = np.abs(w) > kernels._hankel(0.5).switch
    assert hankel.sum() > 500
    assert err[hankel].max() <= 1e-15
    assert err[~hankel].max() <= 1e-12
    far = np.flatnonzero(np.abs(w) > 1e5)[::10]
    got = [float(dlog_dunkl_kernel_1d(0.5, np.float64(v))) for v in w[far]]
    assert np.max(np.abs(got - ref[far])) <= 1e-15


def _log_e_mpmath(kappa, w):
    """log E_kappa(w) from mpmath's 0F1 form, with enough digits to resolve
    log(1 + 1e-300)."""
    mp = pytest.importorskip("mpmath")
    ref = []
    with mp.workdps(700):
        b = mp.mpf(kappa) + mp.mpf(0.5)
        for wi in w:
            v = mp.mpf(wi)
            ref.append(float(mp.log(mp.hyp0f1(b, v * v / 4)
                                     + v / (2 * b) * mp.hyp0f1(b + 1, v * v / 4))))
    return np.array(ref)


@pytest.mark.parametrize("kappa", [2.5, 4.0, 7.5])
def test_log_kernel_tiny_w_large_kappa_matches_mpmath(kappa):
    """At tiny |w| the scaled Bessel pair of a large order underflows to 0;
    log E stays finite and equals w/(2 kappa + 1) to double precision."""
    g = 10.0 ** -np.arange(100.0, 301.0, 5.0)
    w = np.concatenate([g, -g])
    ref = _log_e_mpmath(kappa, w)
    got = log_dunkl_kernel_1d(kappa, w)
    # above the underflow the Bessel route cancels terms of size ~|log w|
    assert np.max(np.abs(got - ref)) <= 1e-12
    # below it (|w| < 1e-151 for kappa = 2.5, all of w for kappa >= 4) the
    # power series is exact to rounding
    tiny = np.abs(w) <= 1e-155
    assert np.max(np.abs(got[tiny] / ref[tiny] - 1.0)) <= 1e-15


@pytest.mark.parametrize("kappa", [0.1, 0.25, 0.45])
def test_log_kernel_tiny_w_small_kappa_matches_mpmath(kappa):
    """Below kappa = 1/2 the Bessel order is negative, and ive returns NaN,
    not 0, at x below about 2.2e-305; log E stays finite there and equals
    w/(2 kappa + 1) to double precision."""
    g = np.concatenate([10.0 ** -np.arange(250.0, 308.0), [2e-305, 3e-305]])
    w = np.concatenate([g, -g])
    ref = _log_e_mpmath(kappa, w)
    got = log_dunkl_kernel_1d(kappa, w)
    assert np.max(np.abs(got - ref)) <= 1e-12
    below = np.abs(w) <= 1e-305
    assert np.count_nonzero(below) == 6  # 1e-305, 1e-306 and 1e-307, both signs
    assert np.isnan(ive(kappa - 0.5, np.abs(w[below]))).all()
    assert np.max(np.abs(got[below] / ref[below] - 1.0)) <= 1e-15


@pytest.mark.parametrize("kappa", [33, 40, 50, 100, 130])
def test_large_kappa_small_w_matches_mpmath(kappa):
    """At large kappa the scaled Bessel pair underflows up to |w| near 1
    (about 0.43 at kappa = 130), and loses digits to subnormals just above;
    log E and E'/E take the power series there.  Both are finite and within
    1e-12 of mpmath on 0-d inputs, on an input under BAND_MIN and on a batch
    past it (the one-term log E was 8.6e-6 off at kappa = 100, and E'/E NaN
    or 0.99 off at kappa = 33 and 40)."""
    g = np.geomspace(1e-12, 1.0, 40)
    w = np.concatenate([[0.0], g, -g])
    ref, dref = _mp_log_e_dlog(kappa, w, dps=80)
    assert w.size < kernels.BAND_MIN
    batch = np.tile(w, -(-kernels.BAND_MIN // w.size))
    for f, want in ((log_dunkl_kernel_1d, ref), (dlog_dunkl_kernel_1d, dref)):
        for got in (np.array([f(kappa, np.float64(v)) for v in w]), f(kappa, w),
                    f(kappa, batch)[: w.size]):
            assert np.isfinite(got).all()
            assert np.max(np.abs(got - want)) <= 1e-12


def test_series_kappa_max_matches_mpmath():
    """At kappa = SERIES_KAPPA_MAX the scaled Bessel pair underflows out to
    |w| near 7.5, and the power series that takes over there is exact to
    rounding: within 1e-16 of mpmath below that edge, and both functions
    within 1e-12 on the pair past it, on 0-d, sub-BAND_MIN and batched inputs."""
    kappa = kernels.SERIES_KAPPA_MAX
    g = np.linspace(0.25, 12.0, 48)
    w = np.concatenate([g, -g])
    ref, dref = _mp_log_e_dlog(kappa, w)
    series = ive(kappa + 0.5, np.abs(w)) < np.finfo(float).tiny
    assert 10 < np.count_nonzero(series) < w.size - 10
    batch = np.tile(w, -(-kernels.BAND_MIN // w.size))
    for f, want in ((log_dunkl_kernel_1d, ref), (dlog_dunkl_kernel_1d, dref)):
        for got in (np.array([f(kappa, np.float64(v)) for v in w]), f(kappa, w),
                    f(kappa, batch)[: w.size]):
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(got - want)[series]) <= 1e-16


@pytest.mark.parametrize("kappa", [kernels.SERIES_KAPPA_MAX + 0.5, 250.0, 300.0])
def test_past_series_kappa_max_raises(kappa):
    """Past SERIES_KAPPA_MAX the 18-term series no longer reaches the |w|
    where the pair underflows: there it is more than 1e-15 off mpmath at
    kappa = 250 (1e-10 at kappa = 300), so log E and E'/E raise rather than
    lose accuracy silently."""
    if kappa >= 250.0:
        x = np.linspace(1.0, 30.0, 2901)
        edge = x[np.argmax(ive(kappa + 0.5, x) >= np.finfo(float).tiny) - 1]
        ref, dref = _mp_log_e_dlog(kappa, [edge])
        assert abs(kernels._series(kappa, np.array([edge]))[0] - ref[0]) > 1e-15
        assert abs(kernels._series(kappa, np.array([edge]), deriv=True)[0] - dref[0]) > 1e-15
    for f in (log_dunkl_kernel_1d, dlog_dunkl_kernel_1d):
        for w in (np.float64(0.5), np.full(3, 0.5), np.full(kernels.BAND_MIN, 0.5)):
            with pytest.raises(SeriesNonConvergence):
                f(kappa, w)


def _mp_log_e_dlog(kappa, w, dps=60):
    """log E_kappa(w) and (E'/E)(w) from mpmath's 0F1 form, with
    b = kappa + 1/2:

        E  = 0F1(; b; w^2/4) + (w / 2b) 0F1(; b+1; w^2/4),
        E' = ((w + 1) / 2b) 0F1(; b+1; w^2/4) + (w^2 / 4b(b+1)) 0F1(; b+2; w^2/4).
    """
    mp = pytest.importorskip("mpmath")
    log_e, dlog_e = [], []
    with mp.workdps(dps):
        b = mp.mpf(kappa) + mp.mpf(0.5)
        for wi in np.asarray(w, dtype=float):
            v = mp.mpf(wi)
            z = v * v / 4
            f0, f1, f2 = mp.hyp0f1(b, z), mp.hyp0f1(b + 1, z), mp.hyp0f1(b + 2, z)
            e = f0 + v / (2 * b) * f1
            de = (v + 1) / (2 * b) * f1 + v * v / (4 * b * (b + 1)) * f2
            log_e.append(float(mp.log(e)))
            dlog_e.append(float(de / e))
    return np.array(log_e), np.array(dlog_e)


ORACLE_KAPPAS = (0.25, 0.5, 1.0, 2.5, 7.5)


@pytest.fixture(scope="module")
def oracle_grid():
    """w over +-geomspace(1e-6, 1e7), with log E and E'/E at each kappa."""
    g = np.geomspace(1e-6, 1e7, 260)
    w = np.concatenate([g, -g])
    return w, {k: _mp_log_e_dlog(k, w) for k in ORACLE_KAPPAS}


def _bessel_band(kappa, w, banded):
    """The elements of w whose log E goes through the scaled Bessel pair."""
    aw = np.abs(w)
    switch = kernels._hankel(kappa).switch
    if banded:
        return (aw >= 1.0) & (aw <= switch)
    return aw <= max(kernels._ASYMPT_SWITCH, switch)


# The Bessel pair's own error on its band: ive is good to a few 1e-14
# relative at a non-integer order, and on the minus branch I_nu - I_{nu+1}
# amplifies it by about |w|/kappa (kappa = 1/4: 2.8e-13 at w = -21).  On the
# small-input route the band reaches down to tiny |w|, where lead and the
# log-bracket cancel (kappa = 15/2: 7.2e-15 at w = -6e-6).
BESSEL_BAND_TOL = {0.25: 4e-13, 0.5: 4e-15, 1.0: 1e-14, 2.5: 4e-15, 7.5: 1e-14}


@pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
def test_log_kernel_matches_mpmath_on_both_routes(oracle_grid, kappa):
    """The power series (|w| < 1) and the Hankel sums are within
    4e-15 max(1, |w|) of mpmath up to |w| = 1e7, on a batch past BAND_MIN
    and on 0-d inputs; the Bessel band within the pair's own error."""
    w, refs = oracle_grid
    ref, dref = refs[kappa]
    assert w.size >= kernels.BAND_MIN
    scale = np.maximum(1.0, np.abs(w))
    got_0d = [log_dunkl_kernel_1d(kappa, np.float64(v)) for v in w]
    assert all(np.ndim(g) == 0 for g in got_0d)
    for banded, got in ((True, log_dunkl_kernel_1d(kappa, w)), (False, np.array(got_0d))):
        err = np.abs(got - ref) / scale
        pair = _bessel_band(kappa, w, banded)
        assert err[~pair].max() <= 4e-15
        assert err[pair].max() <= BESSEL_BAND_TOL[kappa]
    # E'/E past the switch comes from the Hankel sums: an absolute error
    far = np.abs(w) > max(kernels._ASYMPT_SWITCH, kernels._hankel(kappa).switch)
    got = [float(dlog_dunkl_kernel_1d(kappa, np.float64(v))) for v in w[far]]
    assert np.max(np.abs(got - dref[far])) <= 1e-15
    far = np.abs(w) > kernels._hankel(kappa).switch
    assert np.max(np.abs(dlog_dunkl_kernel_1d(kappa, w)[far] - dref[far])) <= 1e-15


def test_log_kernel_minus_branch_past_1e5_matches_mpmath():
    """At kappa = 1/2 the two-term asymptotics once used half the second
    Hankel coefficient on the minus branch: log E was 0.1875/|w| off
    (-1.9e-6 at w = -100001)."""
    w = np.array([-99999.0, -100001.0, -3e5, 100001.0])
    ref, _ = _mp_log_e_dlog(0.5, w)
    got = [float(log_dunkl_kernel_1d(0.5, np.float64(v))) for v in w]
    assert np.max(np.abs(got - ref) / np.abs(w)) <= 4e-15


@pytest.fixture(scope="module")
def route_inputs():
    """A batch past BAND_MIN that straddles 1e5 on both branches, its
    special values, and the 0-d inputs; with the subset checked against
    mpmath (every 25th element and all the special values)."""
    rng = np.random.default_rng(5)
    special = [1e5, -1e5, 1e5 + 1, -(1e5 + 1), 0.0, 1e-7, -1e-7, 1e12, -1e12]
    w = np.concatenate([
        rng.uniform(-3e5, 3e5, 4000),
        rng.standard_normal(1000) * 30.0,
        special,
    ])
    checked = np.concatenate([np.arange(0, 5000, 25), np.arange(5000, w.size)])
    scalars = np.array([1e5, -1e5, 1e5 + 1, -(1e5 + 1), 0.0, 3.5, 1e-9, -3.5, 1e12, -1e12])
    return w, checked, scalars


def _small_chunks(w):
    """The elements 0 < |w| <= 1e5 of w in chunks under BAND_MIN."""
    keep = w[(w != 0) & (np.abs(w) <= kernels._ASYMPT_SWITCH)]
    return np.array_split(keep, -(-keep.size // 100))


def _log_e_pair_everywhere(kappa, w):
    """log E through ive at every element, as inputs under BAND_MIN take it
    up to 1e5 (w nonzero and above the underflow edge)."""
    aw = np.abs(w)
    lead = gammaln(kappa + 0.5) + (0.5 - kappa) * np.log(aw / 2.0)
    return lead + aw + np.log(ive(kappa - 0.5, aw) + np.sign(w) * ive(kappa + 0.5, aw))


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5])
def test_log_kernel_bit_identical_off_half(route_inputs, kappa):
    """Off kappa = 1/2 the bracket goes through ive.  Inputs under BAND_MIN
    and 0-d inputs keep that route bit for bit up to 1e5; the batch
    (banded) and 0-d routes, including +-1e12 and 0, are within
    4e-15 max(1, |w|) of mpmath, except on the Bessel band at kappa = 0.3,
    where ive's own error rules (see BESSEL_BAND_TOL)."""
    w, checked, scalars = route_inputs
    for chunk in _small_chunks(w):
        assert log_dunkl_kernel_1d(kappa, chunk).tobytes() == _log_e_pair_everywhere(kappa, chunk).tobytes()
    assert w.size >= kernels.BAND_MIN
    got = log_dunkl_kernel_1d(kappa, w)[checked]
    got_0d = [log_dunkl_kernel_1d(kappa, np.float64(v)) for v in scalars]
    assert all(np.ndim(g) == 0 for g in got_0d)
    for v, g in zip(scalars, got_0d):
        if 0 < abs(v) <= kernels._ASYMPT_SWITCH:
            assert np.asarray(g).tobytes() == _log_e_pair_everywhere(kappa, v).tobytes()
    tol = 4e-15 if kappa != 0.3 else 4e-13
    for v, g in ((w[checked], got), (scalars, np.array(got_0d, dtype=float))):
        ref, _ = _mp_log_e_dlog(kappa, v)
        assert np.max(np.abs(g - ref) / np.maximum(1.0, np.abs(v))) <= tol


def _dlog_pair_everywhere(kappa, w):
    """E'/E through the scaled Bessel pair at every element, as inputs under
    BAND_MIN take it for 1e-8 <= |w| <= 1e5."""
    sign = np.sign(w)
    i0, i1 = kernels._bessel_pair(kappa - 0.5, np.abs(w))
    return 1.0 - 2.0 * kappa * (sign * i1 / (i0 + sign * i1)) / w


@pytest.mark.parametrize("kappa", [0.3, 0.5, 1.0, 2.5])
def test_dlog_kernel_bit_identical_to_all_elements(route_inputs, kappa):
    """Inputs under BAND_MIN and 0-d inputs take E'/E from the Bessel pair,
    bit for bit, on 1e-8 <= |w| <= 1e5, and a 2-D batch gives its 1-D values
    bit for bit.  Against mpmath: past the Hankel switch of the batch, and
    past 1e5 on 0-d inputs, the error is absolute; on the Bessel band below,
    the minus branch cancels."""
    w, checked, scalars = route_inputs
    w = np.concatenate([w, np.geomspace(1e-12, 1e-4, 50), [-0.0, 1e-8, -1e-8, 5e-324]])
    checked = np.concatenate([checked, np.arange(w.size - 54, w.size)])
    for chunk in _small_chunks(w):
        chunk = chunk[np.abs(chunk) >= 1e-8]
        assert dlog_dunkl_kernel_1d(kappa, chunk).tobytes() == _dlog_pair_everywhere(kappa, chunk).tobytes()
    got = dlog_dunkl_kernel_1d(kappa, w)
    W = w[:5000].reshape(50, 100)
    assert dlog_dunkl_kernel_1d(kappa, W).tobytes() == got[:5000].tobytes()
    _, ref = _mp_log_e_dlog(kappa, w[checked])
    err = np.abs(got[checked] - ref)
    far = np.abs(w[checked]) > kernels._hankel(kappa).switch
    assert err[far].max() <= 1e-15
    # ive's own error, amplified on the minus branch (kappa = 0.3: 4.5e-12)
    assert err[~far].max() <= 1e-11
    got_0d = [dlog_dunkl_kernel_1d(kappa, np.float64(v)) for v in scalars]
    assert all(np.ndim(g) == 0 for g in got_0d)
    _, ref = _mp_log_e_dlog(kappa, scalars)
    err = np.abs(np.array(got_0d, dtype=float) - ref)
    far = np.abs(scalars) > kernels._ASYMPT_SWITCH
    assert err[far].max() <= 1e-15
    assert err[~far].max() <= 1e-10


def test_z2d_product(z2sq_ones):
    x, y = np.array([1.0, 1.0]), np.array([1.0, 1.0])
    one_d = dunkl_kernel_1d(1.0, 1.0, 1.0)
    assert dunkl_kernel_z2d(z2sq_ones, x, y) == pytest.approx(one_d**2, rel=1e-12)
    assert dunkl_kernel_z2d(z2sq_ones, x, np.zeros(2)) == pytest.approx(1.0)
    rs0 = root_system("z2^2", multiplicity=[0, 0])
    assert dunkl_kernel_z2d(rs0, x, y) == pytest.approx(math.exp(x @ y), rel=1e-13)


def test_z2d_wrong_group(a2_one):
    with pytest.raises(WrongGroup):
        dunkl_kernel_z2d(a2_one, np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("group, kappa", [("a2", 1), ("b2", [1, 2])])
def test_riesz_kernel_wrong_group(group, kappa, monkeypatch):
    """Off Z2^d the Riesz kernel stops before any quadrature or heat kernel."""
    basis = build_basis(root_system(group, multiplicity=kappa), 2, exact=False)

    def forbidden(*args, **kwargs):
        raise AssertionError("a heat kernel was evaluated")

    monkeypatch.setattr(kernels, "heat_kernel", forbidden)
    monkeypatch.setattr(kernels, "dunkl_kernel_mehler", forbidden)
    with pytest.raises(WrongGroup, match=r"Z2\^d"):
        riesz_kernel(basis, 1, np.zeros(2), np.array([0.5, 0.3]))


def test_kernel_symmetry_scaling_invariance(z2sq_ones):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        lam = rng.uniform(0.2, 2.0)
        Exy = dunkl_kernel_z2d(z2sq_ones, x, y)
        assert dunkl_kernel_z2d(z2sq_ones, y, x) == pytest.approx(Exy, rel=1e-8)
        assert dunkl_kernel_z2d(z2sq_ones, lam * x, y) == pytest.approx(
            dunkl_kernel_z2d(z2sq_ones, x, lam * y), rel=1e-8
        )
        for g in z2sq_ones.group.matrices:
            assert dunkl_kernel_z2d(z2sq_ones, g @ x, g @ y) == pytest.approx(Exy, rel=1e-8)


def test_mehler_inversion_vs_series(z2_half):
    basis = build_basis(z2_half, 24)
    for x in (0.0, 0.5, -1.0):
        for y in (0.3, 1.0):
            got = dunkl_kernel_mehler(basis, np.array([x]), np.array([y]))
            want = math.exp(float(log_dunkl_kernel_1d(0.5, x * y)))
            assert got == pytest.approx(want, rel=1e-6)


def test_mehler_inversion_normalization(z2_half):
    basis = build_basis(z2_half, 24)
    assert dunkl_kernel_mehler(basis, np.zeros(1), np.array([0.7])) == pytest.approx(1.0, rel=1e-8)


def test_mehler_kappa0_2d():
    basis = build_basis(root_system("z2^2", multiplicity=[0, 0]), 14)
    cfg = KernelConfig(mehler_r_cap=0.3)
    for x in ([0.5, 0.5], [1.0, -0.5]):
        for y in ([0.25, 1.0], [0.8, 0.8]):
            got = dunkl_kernel_mehler(basis, np.array(x), np.array(y), cfg)
            assert got == pytest.approx(math.exp(np.dot(x, y)), rel=1e-6)


def test_mehler_truncation_guard(z2_half):
    basis = build_basis(z2_half, 4)
    with pytest.raises(TruncationTooCoarse):
        dunkl_kernel_mehler(basis, np.array([1.0]), np.array([1.0]))


def test_dunkl_kernel_dispatch_a2(a2_one):
    """General-group path: E(g x, g y) = E(x, y) and E(0, y) = 1."""
    basis = build_basis(a2_one, 12)
    cfg = KernelConfig(mehler_r_cap=0.2)
    x, y = np.array([0.4, 0.1]), np.array([-0.3, 0.5])
    base = dunkl_kernel_mehler(basis, x, y, cfg)
    for g in a2_one.group.matrices:
        assert dunkl_kernel_mehler(basis, g @ x, g @ y, cfg) == pytest.approx(base, rel=1e-7)
    assert dunkl_kernel_mehler(basis, np.zeros(2), y, cfg) == pytest.approx(1.0, rel=1e-8)
    # the dispatcher picks the Mehler route for non-Z2^d groups
    assert dunkl_kernel(basis, x, y, cfg) == pytest.approx(base, rel=1e-12)


# -- heat kernels -----------------------------------------------------------


def test_heat_classical_value():
    assert heat_kernel_classical(1.0, [0.0], [0.0]) == pytest.approx(
        (2 * math.pi * math.sinh(2.0)) ** -0.5, rel=1e-14
    )


def test_heat_classical_two_printed_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = rng.uniform(0.05, 3.0)
        x, y = rng.normal(size=2), rng.normal(size=2)
        # first form: coth|x-y|^2/2 + tanh <x,y>
        form1 = (2 * math.pi * math.sinh(2 * t)) ** -1.0 * math.exp(
            -0.5 / math.tanh(2 * t) * float(np.sum((x - y) ** 2))
            - math.tanh(t) * float(x @ y)
        )
        form2 = heat_kernel_classical(t, x, y)
        assert form2 == pytest.approx(form1, rel=1e-12)


def test_heat_classical_large_t_decay():
    x, y = np.array([0.5]), np.array([1.0])
    vals = [heat_kernel_classical(t, x, y) for t in (5.0, 6.0)]
    assert vals[1] / vals[0] == pytest.approx(math.exp(-1.0), rel=1e-3)


def test_heat_kappa0_reduction(z2_zero_basis8):
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(0.05, 2.0)
        x, y = rng.normal(size=1), rng.normal(size=1)
        assert heat_kernel(z2_zero_basis8, t, x, y) == pytest.approx(
            heat_kernel_classical(t, x, y), rel=1e-10
        )


def test_heat_closed_vs_spectral_series(z2_half_basis8):
    for t in (0.1, 0.3, 1.0, 2.0):
        closed = heat_kernel(z2_half_basis8, t, [1.0], [0.5])
        series = heat_kernel_series([0.5], t, [1.0], [0.5])
        assert closed == pytest.approx(series, rel=1e-8)


def test_heat_symmetry(z2_half_basis8):
    assert heat_kernel(z2_half_basis8, 0.4, [1.2], [-0.3]) == pytest.approx(
        heat_kernel(z2_half_basis8, 0.4, [-0.3], [1.2]), rel=1e-12
    )


def test_heat_printed_constant_fails_by_factor(z2_half_basis8):
    t, x, y = 0.3, [1.0], [0.5]
    good = heat_kernel(z2_half_basis8, t, x, y)
    printed = heat_kernel(z2_half_basis8, t, x, y, prefactor="printed")
    assert printed / good == pytest.approx(2.0 ** (0.5 + 0.5), rel=1e-13)
    series = heat_kernel_series([0.5], t, x, y)
    assert abs(printed - series) / series > 0.5  # fails decisively


def test_heat_series_2d_tensor(z2sq_ones):
    b = build_basis(z2sq_ones, 4)
    t, x, y = 0.5, np.array([0.7, -0.2]), np.array([0.1, 0.9])
    closed = heat_kernel(b, t, x, y)
    series = heat_kernel_series([1.0, 1.0], t, x, y)
    assert closed == pytest.approx(series, rel=1e-8)


def test_heat_mehler_path_general_group(a2_one):
    """General-group heat kernel against the eigenfunction series."""
    basis = build_basis(a2_one, 14)
    cfg = KernelConfig(mehler_r_cap=0.2)
    t, x, y = 0.8, np.array([0.3, 0.2]), np.array([-0.2, 0.4])
    closed = heat_kernel(basis, t, x, y, cfg)
    hm_x = basis.hermite_function_matrix(x[None, :])[:, 0]
    hm_y = basis.hermite_function_matrix(y[None, :])[:, 0]
    series = float(np.sum(np.exp(-t * basis.eigenvalues()) * hm_x * hm_y))
    assert closed == pytest.approx(series, rel=1e-6)


# -- gaussian translation ---------------------------------------------------


def test_gaussian_translate_classical():
    rs0 = root_system("z2^2", multiplicity=[0, 0])
    x, y = np.array([1.0, 0.2]), np.array([0.4, -1.0])
    got = gaussian_translate(rs0, 0.7, x, y)
    assert got == pytest.approx(math.exp(-0.7 * float(np.sum((x - y) ** 2))), rel=1e-12)


def test_gaussian_translate_at_origin(z2sq_ones):
    y = np.array([0.3, -0.4])
    got = gaussian_translate(z2sq_ones, 1.3, np.zeros(2), y)
    assert got == pytest.approx(math.exp(-1.3 * float(y @ y)), rel=1e-12)


def test_gaussian_translate_symmetry_positivity(z2sq_ones):
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.uniform(0.1, 2.0)
        x, y = rng.normal(size=2), rng.normal(size=2)
        a = gaussian_translate(z2sq_ones, c, x, y)
        b = gaussian_translate(z2sq_ones, c, y, x)
        assert a > 0 and a == pytest.approx(b, rel=1e-10)


def test_gaussian_translate_orbit_squeeze(z2sq_ones):
    rng = np.random.default_rng(8)
    G = z2sq_ones.group
    for _ in range(40):
        c = rng.uniform(0.2, 1.5)
        x, y = rng.normal(size=2), rng.normal(size=2)
        val = gaussian_translate(z2sq_ones, c, x, y)
        dists = np.linalg.norm(G.orbit(x) - y, axis=1) ** 2
        assert math.exp(-c * dists.max()) - 1e-12 <= val <= math.exp(-c * dists.min()) + 1e-12


# -- Riesz kernel -----------------------------------------------------------


def test_riesz_antisymmetry_classical(z2_zero_basis8):
    Kp = riesz_kernel(z2_zero_basis8, 1, [1.0], [2.0])
    Kn = riesz_kernel(z2_zero_basis8, 1, [-1.0], [-2.0])
    assert Kn == pytest.approx(-Kp, rel=1e-9)


def test_riesz_orbit_floor(z2_half_basis8):
    with pytest.raises(OrbitTooClose):
        riesz_kernel(z2_half_basis8, 1, [1.0], [1.0 + 1e-9])


def _riesz_mpmath(basis, x, y, md):
    """K_1(x, y) on z2 for 0 < x < y by mpmath quadrature of the
    subordination integral, with u = sqrt(t) breaks at md * 2^k / 64."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        k, g, ck = mp.mpf(basis.rs.multiplicity[0]), mp.mpf(basis.gamma), mp.mpf(basis.c_kappa)
        x, y = mp.mpf(x), mp.mpf(y)

        def h(t):
            s = mp.sinh(2 * t)
            c, w = mp.cosh(2 * t) / s, x * y / s
            log_e = (mp.loggamma(k + 0.5) + (0.5 - k) * mp.log(w / 2)
                     + mp.log(mp.besseli(k - 0.5, w) + mp.besseli(k + 0.5, w)))
            log_k = -mp.log(ck) - (g + 0.5) * mp.log(s) - c * (x * x + y * y) / 2 + log_e
            return mp.exp(log_k) * ((1 - c) * x + y / s)

        breaks = [0] + [mp.mpf(md) * 2**i / 64 for i in range(80) if md * 2**i < 64] + [1]
        rule = dict(method="gauss-legendre", maxdegree=3)
        head = mp.quad(lambda u: 2 * h(u * u), breaks, **rule)
        tail = mp.quad(lambda t: h(t) / mp.sqrt(t), [1, mp.inf], **rule)
        return float((head + tail) / mp.sqrt(mp.pi))


@pytest.mark.parametrize("md", [1e-5, 1e-4])
@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_riesz_many_near_orbit_matches_mpmath(kappa, md):
    """A batch whose nearest pair is md apart starts its lattice in log t
    where that pair's heat kernel is still exactly 0, well below the
    integrand's peak near t ~ md^2, and the step in log t is the same at
    every scale.  The heat exponent subtracts md^2 / (2 sinh 2t) itself,
    with no cancelling pair of terms of size q / sinh 2t, so what is left is
    1.5e-10 at x = 2, md = 1e-5 (4.8e-10 on Gauss-Legendre u-panels from
    md/8; the cancelling form was 2.6e-6 off there; a first panel floored at
    1e-4, 1.6e-2)."""
    basis = build_basis(root_system("z2", multiplicity=kappa), 2, exact=False)
    x = np.array([[0.5], [2.0]])
    got = riesz_kernel_many(basis, 1, x, x + md)
    want = [_riesz_mpmath(basis, xi, xi + md, md) for xi in x[:, 0]]
    assert np.max(np.abs(got / want - 1.0)) <= 2e-9
    # the one-pair route is the batch of one, the same bits as its row
    one = [riesz_kernel(basis, 1, xi, xi + md) for xi in x]
    assert np.array(one).tobytes() == got.tobytes()


@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_log_heat_near_orbit_matches_mpmath(kappa):
    """log k_t near the orbit, md = |y| - |x| from 1e-5 to 1e-2 and t from
    md^2/4 to 0.1, against the cancelling textbook form in mpmath at 40
    digits.  The float form subtracts md^2 / (2 sinh 2t) directly, so it
    stays within 5e-14 max(1, |log k|) where the cancelling one was 2e-7."""
    mp = pytest.importorskip("mpmath")
    ev = z2_evaluator(build_basis(root_system("z2", multiplicity=kappa), 2, exact=False))
    worst = 0.0
    for x in (0.5, 2.0):
        for md in (1e-5, 1e-4, 1e-2):
            for t in np.geomspace(md * md / 4.0, 0.1, 9):
                got = float(ev.log_heat(t, [x], [x + md]))
                with mp.workdps(40):
                    k, s = mp.mpf(kappa), mp.sinh(2 * mp.mpf(t))
                    X, Y = mp.mpf(x), mp.mpf(x + md)
                    w = X * Y / s
                    log_e = (mp.loggamma(k + 0.5) + (0.5 - k) * mp.log(w / 2)
                             + mp.log(mp.besseli(k - 0.5, w) + mp.besseli(k + 0.5, w)))
                    want = float(-mp.log(ev.c_kappa) - (k + 0.5) * mp.log(s)
                                 - mp.coth(2 * mp.mpf(t)) * (X * X + Y * Y) / 2 + log_e)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 5e-14


def test_heat_kernel_symmetric_bit_for_bit(z2sq_ones):
    """k_t is built from pair terms that are symmetric in (x, y), so the two
    orientations agree bit for bit, near the orbit too."""
    basis = build_basis(z2sq_ones, 2, exact=False)
    rng = np.random.default_rng(4)
    X = rng.normal(scale=2.0, size=(200, 2))
    Y = np.concatenate([rng.normal(scale=2.0, size=(150, 2)), -X[150:] + 1e-4])
    for t in rng.uniform(1e-3, 2.0, 20):
        assert heat_kernel(basis, t, X, Y).tobytes() == heat_kernel(basis, t, Y, X).tobytes()
    for x, y, t in zip(X[:50], Y[:50], rng.uniform(1e-3, 2.0, 50)):
        assert heat_kernel(basis, t, x, y) == heat_kernel(basis, t, y, x)


@pytest.mark.parametrize("group, kappa, j", [("z2", 0.5, 0), ("z2", 0.5, 2), ("z2^2", [1, 1], 3)])
def test_riesz_axis_outside_range_rejected(group, kappa, j):
    """j is a 1-based axis; j = 0 would wrap to the last axis."""
    basis = build_basis(root_system(group, multiplicity=kappa), 2, exact=False)
    x = np.ones(basis.rs.dim)
    with pytest.raises(ValueError, match="Riesz axis"):
        riesz_kernel(basis, j, x, 2 * x)
    with pytest.raises(ValueError, match="Riesz axis"):
        riesz_kernel_many(basis, j, x[None], 2 * x[None])


@pytest.mark.parametrize("kappa", [0.5, 1.0])
@pytest.mark.parametrize("x, y", [(1.0, 2.5), (0.5, 1.2), (-1.0, 0.8), (2.0, -3.0), (1.0, 1.15)])
def test_riesz_coarse_quadrature_oracle(x, y, kappa):
    """K_1 on z2 against an independent adaptive quadrature of the same
    integrand, with t = e^s on (0, 1] and plain t on [1, 30]; the panels
    were within 4.7e-15 relative of it on these ten cases."""
    from scipy.integrate import quad

    basis = build_basis(root_system("z2", multiplicity=kappa), 2, exact=False)
    ev = z2_evaluator(basis)

    def integrand(t):  # k_t(x,y) [ (1 - coth 2t) x + y / sinh 2t ] / sqrt(t)
        s = math.sinh(2.0 * t)
        bracket = (1.0 - math.cosh(2.0 * t) / s) * x + y / s
        return float(ev.heat(t, [x], [y])) * bracket / math.sqrt(t)

    rule = dict(epsabs=1e-14, epsrel=1e-12)
    head, _ = quad(lambda s: integrand(math.exp(s)) * math.exp(s), -30, 0, limit=300, **rule)
    tail, _ = quad(integrand, 1.0, 30.0, limit=200, **rule)
    oracle = (head + tail) / math.sqrt(math.pi)
    assert riesz_kernel(basis, 1, [x], [y]) == pytest.approx(oracle, rel=1e-12)


def test_riesz_decay_profile(z2_half_basis8):
    """|K| * md^(2 gamma + d) stays bounded over separations 0.1 .. 10."""
    seps = np.geomspace(0.1, 10.0, 10)
    X = np.full((10, 1), 1.0)
    Y = X + seps[:, None]
    md = np.abs(Y - X).ravel()
    K = riesz_kernel_many(z2_half_basis8, 1, X, Y)
    ratios = np.abs(K) * md ** (2 * 0.5 + 1)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() < 10.0


def _riesz_unpruned(basis, j, X, Y):
    """riesz_kernel_many's panel sums A and B with every row evaluated at
    every lattice node of the batch, one node at a time, through the same
    per-element log E bands as the node blocks, and K_j = A x_j + B y_j."""
    ev = z2_evaluator(basis)
    X, Y = np.broadcast_arrays(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
    P = ev._pairs(X, Y)
    A = np.zeros(X.shape[:-1])
    B = np.zeros(X.shape[:-1])
    for t, w, _, _ in zip(*kernels._riesz_lattice(ev, float(np.min(P[0])))):
        s = np.array([math.sinh(2.0 * t)])
        k = np.exp(ev._log_heat_block(np.array([t]), s, ev._log_front(s), P))[0]
        A += (w * (1.0 - math.cosh(2.0 * t) / s[0])) * k
        B += (w / s[0]) * k
    A, B = A / math.sqrt(math.pi), B / math.sqrt(math.pi)
    return A * X[..., j - 1] + B * Y[..., j - 1]


@pytest.mark.parametrize(
    "name, kappa",
    [("z2", Fraction(3, 10)), ("z2", Fraction(1, 2)), ("z2", Fraction(1)),
     ("z2", Fraction(5, 2)), ("z2^2", [Fraction(1, 2), Fraction(1)])],
)
def test_riesz_many_pruned_bit_identical(name, kappa, monkeypatch):
    """Skipping the rows whose heat kernel is exactly 0 at a node, and
    evaluating the nodes in blocks, changes no bit of the panel sums, for
    either pole layout."""
    basis = build_basis(root_system(name, multiplicity=kappa), 2)
    d = basis.rs.dim
    rng = np.random.default_rng(8)
    pole = np.array([[1.0, -0.5][:d]])
    X = np.concatenate([
        rng.uniform(-12.0, 12.0, (150, d)),
        np.zeros((1, d)),                                  # x = 0
        pole + 2e-3,                                       # |w| > 1e5 at small t
        np.full((1, d), 3.0), np.full((1, d), -40.0),
        np.full((1, d), 300.0),                            # pruned at most nodes
    ])
    rows = []
    log_heat_block = kernels.Z2Evaluator._log_heat_block
    for A, B in ((X, pole), (pole, X)):
        every = z2_evaluator(basis)._pairs(A, B)

        def counted(self, t, s, front, P):
            """log k_t on one block of nodes, on the pair terms riesz_kernel_many
            keeps, after checking that k_t is exactly 0 on every pair it skips."""
            rows.append(P.shape[1])
            kept = {r.tobytes() for r in P.T}
            skipped = np.array([r.tobytes() not in kept for r in every.T])
            assert not np.any(np.exp(log_heat_block(self, t, s, front, every))[:, skipped])
            return log_heat_block(self, t, s, front, P)

        for j in range(1, d + 1):
            want = _riesz_unpruned(basis, j, A, B)
            monkeypatch.setattr(kernels.Z2Evaluator, "_log_heat_block", counted)
            rows.clear()
            got = riesz_kernel_many(basis, j, A, B)
            monkeypatch.undo()
            assert got.shape == want.shape == (len(X),)
            assert got.tobytes() == want.tobytes()
            assert min(rows) < len(X)
            assert np.count_nonzero(got) > 0


@pytest.mark.parametrize("name, kappa", [("z2", 0.3), ("z2", 0.5), ("z2^2", [0.5, 1.0])])
def test_log_heat_block_matches_log_heat(name, kappa):
    """Each row of a block of nodes is _log_heat at that node's float t, bit
    for bit, on a batch past BAND_MIN, where both take log E by band."""
    basis = build_basis(root_system(name, multiplicity=kappa), 2, exact=False)
    ev = z2_evaluator(basis)
    rng = np.random.default_rng(12)
    P = ev._pairs(rng.uniform(-6.0, 6.0, (kernels.BAND_MIN, basis.rs.dim)), [[1.0, -0.5][: basis.rs.dim]])
    t = np.array([1e-4, 0.03, 0.7, 2.5])
    s = np.array([math.sinh(2.0 * u) for u in t])
    block = ev._log_heat_block(t, s, ev._log_front(s), P)
    for i, u in enumerate(t):
        assert block[i].tobytes() == ev._log_heat(float(u), P).tobytes()


def _mc_batch(rng, n, pole, d, near=2e-3):
    """n points around the orbit of the pole, at distances near to 13 spread
    like the Hormander Monte Carlo sample."""
    dist = 1.0 / (1.0 / near - rng.random(n) * (1.0 / near - 1.0 / 13.0))
    side = rng.choice([-1.0, 1.0], (n, d))
    return rng.choice([-1.0, 1.0], (n, 1)) * pole + side * dist[:, None] / math.sqrt(d)


@pytest.mark.parametrize("name, kappa", [("z2", 0.3), ("z2", 0.5), ("z2", 1.0), ("z2^2", [0.5, 1.0])])
def test_riesz_row_independent_of_its_batch(name, kappa):
    """A row's panel values are the same bits alone as inside a 4,000-row
    batch: the lattice is the same for every batch, the row is exactly 0.0
    at the nodes below its own first one, each element takes log E by
    (kappa, |w|) alone, and each row's sums keep their node order."""
    basis = build_basis(root_system(name, multiplicity=kappa), 2, exact=False)
    d = basis.rs.dim
    rng = np.random.default_rng(10)
    pole = np.array([[1.0, -0.5][:d]])
    X = np.concatenate([_mc_batch(rng, 3000, pole, d), rng.uniform(-12.0, 12.0, (1000, d))])
    nearest = int(np.argmin(orbit_distances(basis.rs.group, X, pole)))
    direct, transposed = riesz_kernel_both(basis, d, X, pole)
    for i in [nearest, *rng.choice(len(X), 12, replace=False)]:
        alone = riesz_kernel_both(basis, d, X[[i]], pole)
        assert alone[0][0].tobytes() == direct[i].tobytes()
        assert alone[1][0].tobytes() == transposed[i].tobytes()


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.5])
def test_riesz_lattice_converged(kappa, monkeypatch):
    """The lattice step is past convergence: near the orbit (md from 1e-5)
    and far from it, A and B move by at most 2e-14 relative on the lattice
    at a third of the step."""
    basis = build_basis(root_system("z2", multiplicity=kappa), 2, exact=False)
    rng = np.random.default_rng(13)
    pole = np.array([[1.0]])
    X = np.concatenate([_mc_batch(rng, 600, pole, 1, near=1e-5), rng.uniform(-13.0, 13.0, (200, 1))])
    A, B, _, _ = kernels._riesz_time_integrals(basis, X, pole)
    monkeypatch.setattr(kernels, "LATTICE_STEP", kernels.LATTICE_STEP / 3.0)
    A3, B3, _, _ = kernels._riesz_time_integrals(basis, X, pole)
    assert np.max(np.abs(A / A3 - 1.0)) <= 2e-14
    assert np.max(np.abs(B / B3 - 1.0)) <= 2e-14


def test_riesz_panel_pass_element_count(monkeypatch):
    """A 4,000-row pass of the Hormander Monte Carlo shape evaluates the heat
    kernel on at most 1.0 M (node, row) elements (about 1.45 M on the
    Gauss-Legendre u-panels the lattice replaced)."""
    basis = build_basis(root_system("z2", multiplicity=0.5), 2, exact=False)
    X = _mc_batch(np.random.default_rng(11), 4000, np.array([[1.0]]), 1)
    elems = [0]
    log_heat_block = kernels.Z2Evaluator._log_heat_block

    def counted(self, t, s, front, P):
        elems[0] += t.size * P.shape[1]
        return log_heat_block(self, t, s, front, P)

    monkeypatch.setattr(kernels.Z2Evaluator, "_log_heat_block", counted)
    riesz_kernel_both(basis, 1, X, [[1.0]])
    assert 0 < elems[0] <= 1_000_000


def test_riesz_panel_pass_evaluates_log_e_per_block(monkeypatch):
    """A 4,000-row panel pass takes log E once per block of nodes, not once
    per node: it has about 250 lattice nodes at which some row is nonzero."""
    basis = build_basis(root_system("z2", multiplicity=0.5), 2, exact=False)
    X = _mc_batch(np.random.default_rng(11), 4000, np.array([[1.0]]), 1)
    calls = [0]

    def counting(f):
        def wrapped(*args):
            calls[0] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(kernels, "_log_e_bands", counting(kernels._log_e_bands))
    monkeypatch.setattr(kernels.Z2Evaluator, "_log_e", counting(kernels.Z2Evaluator._log_e))
    riesz_kernel_both(basis, 1, X, [[1.0]])
    assert 0 < calls[0] < 200


@pytest.mark.parametrize("shape", [(0, 1), (2, 0, 1)])
def test_riesz_panels_empty_batch(z2_half_basis8, shape):
    """An empty batch gives empty arrays of the broadcast shape."""
    X = np.empty(shape)
    for got in (riesz_kernel_many(z2_half_basis8, 1, X, [[1.0]]),
                *riesz_kernel_both(z2_half_basis8, 1, [[1.0]], X)):
        assert got.shape == shape[:-1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_riesz_panels_reject_non_finite(z2_half_basis8, bad):
    """A coordinate that is not finite raises ValueError before any node is
    built, and no numpy warning is emitted on the way."""
    X = np.array([[0.5], [bad], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((X, [[1.0]]), ([[1.0]], X)):
            with pytest.raises(ValueError, match="finite"):
                riesz_kernel_both(z2_half_basis8, 1, *args)
            with pytest.raises(ValueError, match="finite"):
                riesz_kernel_many(z2_half_basis8, 1, *args)


@pytest.mark.parametrize("name, kappa", [("z2", 0.3), ("z2", 0.5), ("z2", 1.0), ("z2^2", [0.5, 1.0])])
def test_riesz_both_orientations_match_swapped_calls(name, kappa):
    """One pass of the time integrals A, B gives K_j(x,y) = A x_j + B y_j and
    K_j(y,x) = A y_j + B x_j: the first is riesz_kernel_many bit for bit, and
    so is the second with swapped arguments, since the heat kernel is built
    from pair terms that are symmetric in (x, y)."""
    basis = build_basis(root_system(name, multiplicity=kappa), 2, exact=False)
    d = basis.rs.dim
    rng = np.random.default_rng(9)
    X = rng.uniform(-4.0, 4.0, (700, d))
    pole = np.array([[1.0, -0.5][:d]])
    for j in range(1, d + 1):
        direct, transposed = riesz_kernel_both(basis, j, X, pole)
        assert direct.tobytes() == riesz_kernel_many(basis, j, X, pole).tobytes()
        assert transposed.tobytes() == riesz_kernel_many(basis, j, pole, X).tobytes()
