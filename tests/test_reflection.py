import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dunklriesz.reflection import (
    InvalidRootSystem,
    NonClosedSystem,
    generate_group,
    gamma,
    min_orbit_distance,
    orbit_distances,
    reflect,
    root_system,
    weight,
)


def test_reflect_rank1_sign_flip():
    assert reflect([math.sqrt(2)], [3.0]) == pytest.approx([-3.0])


def test_reflect_coordinate():
    assert reflect([math.sqrt(2), 0.0], [1.0, 1.0]) == pytest.approx([-1.0, 1.0])


def test_reflect_fixes_hyperplane():
    alpha = np.array([math.sqrt(2), 0.0])
    x = np.array([0.0, 2.7])
    assert reflect(alpha, x) == pytest.approx(x)


@pytest.mark.parametrize("name", ["z2", "z2^2"])
def test_reflect_axis_root_negates_bit_for_bit(name):
    """For an axis root sqrt(2) e_j, reflect negates x_j exactly and leaves
    the other coordinates as they are."""
    rs = root_system(name, multiplicity=1)
    X = np.random.default_rng(3).uniform(-5.0, 5.0, (100_000, rs.dim))
    for alpha in rs.positive_roots:
        j = int(np.argmax(np.abs(alpha)))
        want = X.copy()
        want[:, j] = -want[:, j]
        assert reflect(alpha, X).tobytes() == want.tobytes()


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.floats(0.1, math.pi - 0.1))
def test_reflect_involutive(x, theta):
    alpha = math.sqrt(2) * np.array([math.cos(theta), math.sin(theta)])
    x = np.array(x)
    assert reflect(alpha, reflect(alpha, x)) == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize(
    "name,mult,order",
    [
        ("z2", 1, 2),
        ("z2^2", [1, 1], 4),
        ("z2^3", 0.5, 8),
        ("a2", 1, 6),        # brute-force closure must match |S3| = 6
        ("b2", [1, 1], 8),
        ("i2(4)", [1, 1], 8),
        ("i2(5)", 1, 10),
        ("i2(6)", [0.5, 1.5], 12),
    ],
)
def test_group_orders(name, mult, order):
    rs = root_system(name, multiplicity=mult)
    G = rs.group
    assert G.order == order
    # identity present, all orthogonal
    assert np.allclose(G.matrices[0], np.eye(rs.dim))
    for M in G.matrices:
        assert np.allclose(M @ M.T, np.eye(rs.dim), atol=1e-12)


def test_a2_group_matches_explicit_s3():
    """Independent oracle: the 6 elements of the A2 group are the rotations
    by 0, 120, 240 degrees and three mirror reflections."""
    rs = root_system("a2", multiplicity=1)
    got = {tuple(np.round(M, 8).ravel()) for M in rs.group.matrices}
    expected = set()
    for k in range(3):
        c, s = math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)
        expected.add(tuple(np.round(np.array([[c, -s], [s, c]]), 8).ravel()))
    for k in range(3):
        t = k * math.pi / 3  # mirrors orthogonal to the three root lines
        c, s = math.cos(2 * t), math.sin(2 * t)
        expected.add(tuple(np.round(np.array([[-c, -s], [-s, c]]), 8).ravel()))
    assert got == expected


def test_group_closure_and_inverses():
    rs = root_system("b2", multiplicity=[1, 2])
    mats = rs.group.matrices
    keys = {np.round(M, 9).tobytes() for M in (mats + 0.0)}
    for A in mats:
        assert np.round(np.linalg.inv(A) + 0.0, 9).tobytes() in keys
        for B in mats[:3]:
            assert np.round(A @ B + 0.0, 9).tobytes() in keys


def test_weight_examples():
    rs0 = root_system("z2", multiplicity=0)
    assert weight(rs0, [7.3]) == pytest.approx(1.0)
    rs1 = root_system("z2", multiplicity=1)
    assert weight(rs1, [3.0]) == pytest.approx(18.0)  # |sqrt(2)*3|^2
    rs2 = root_system("z2^2", multiplicity=[1, 0.5])
    assert weight(rs2, [0.0, 5.0]) == pytest.approx(0.0)  # on a mirror


@given(st.integers(0, 11), st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_weight_group_invariance(gidx, x):
    rs = root_system("i2(6)", multiplicity=[0.5, 1.5])
    g = rs.group.matrices[gidx % rs.group.order]
    wx = weight(rs, np.array(x))
    wgx = weight(rs, g @ np.array(x))
    # on mirrors w = 0 exactly but the rotated point sits O(eps) off its
    # mirror, so allow float fuzz in absolute terms as well
    assert wgx == pytest.approx(wx, rel=1e-10, abs=1e-8)


def test_weight_homogeneity():
    rs = root_system("a2", multiplicity=1)
    x = np.array([0.3, -1.1])
    r = 2.7
    assert weight(rs, r * x) == pytest.approx(r ** (2 * gamma(rs)) * weight(rs, x), rel=1e-12)


def test_gamma_values():
    assert gamma(root_system("z2", multiplicity=0)) == 0.0
    assert gamma(root_system("z2", multiplicity=0.5)) == 0.5
    assert gamma(root_system("z2^3", multiplicity=1)) == 3.0


def test_min_orbit_distance_examples():
    rs = root_system("z2", multiplicity=1)
    assert min_orbit_distance(rs.group, [1.0], [3.0]) == pytest.approx(2.0)
    rs2 = root_system("z2^2", multiplicity=[1, 1])
    assert min_orbit_distance(rs2.group, [1.0, 2.0], [-1.0, 2.0]) == pytest.approx(0.0)
    g = rs2.group.matrices[3]
    x = np.array([0.4, -1.9])
    assert min_orbit_distance(rs2.group, x, g @ x) == pytest.approx(0.0)


def test_orbit_distances_batch(z2sq_ones):
    X = np.array([[1.0, 2.0], [0.5, 0.5]])
    Y = np.array([[-1.0, 2.0], [3.0, 0.0]])
    md = orbit_distances(z2sq_ones.group, X, Y)
    assert md[0] == pytest.approx(0.0)
    assert md[1] == pytest.approx(min_orbit_distance(z2sq_ones.group, X[1], Y[1]))


def test_orbit_squeeze(a2_one):
    """min_g |y - gx|^2 <= |x|^2+|y|^2-2<y,eta> <= max_g |y - gx|^2 for eta
    in the convex hull of the orbit of x."""
    rng = np.random.default_rng(5)
    G = a2_one.group
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        orbit = G.orbit(x)
        lam = rng.random(G.order)
        lam /= lam.sum()
        eta = lam @ orbit
        mid = x @ x + y @ y - 2 * y @ eta
        dists = np.linalg.norm(orbit - y, axis=1) ** 2
        assert dists.min() - 1e-10 <= mid <= dists.max() + 1e-10


def test_multiplicity_invariance_enforced():
    # the two B2 orbits may carry different kappas, but roots within one may not
    with pytest.raises(InvalidRootSystem):
        root_system("b2", multiplicity=[1, 2, 3, 4])


def test_multiplicity_per_orbit():
    rs = root_system("b2", multiplicity=[1, 2])
    assert sorted(set(rs.multiplicity.tolist())) == [1.0, 2.0]
    assert gamma(rs) == pytest.approx(6.0)  # 2*1 + 2*2


def test_explicit_roots_rescaled():
    rs = root_system(roots=[[1.0, 0.0], [0.0, 2.0]], multiplicity=0.5)
    assert np.allclose(np.einsum("ij,ij->i", rs.positive_roots, rs.positive_roots), 2.0)
    assert rs.group.order == 4


@pytest.mark.parametrize("roots", [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]])
def test_two_positive_roots_on_one_mirror_rejected(roots):
    # alpha and -alpha would count their mirror twice in w_kappa
    with pytest.raises(InvalidRootSystem, match="duplicate positive root"):
        root_system(roots=roots, multiplicity=0.5)


def test_nonclosed_detected():
    with pytest.raises(InvalidRootSystem):
        # two lines at an irrational angle never close up
        theta = 1.0
        root_system(
            roots=[[math.sqrt(2), 0.0],
                   [math.sqrt(2) * math.cos(theta), math.sqrt(2) * math.sin(theta)]],
            multiplicity=1,
        )


def test_group_cap():
    rs = root_system("i2(6)", multiplicity=1)
    with pytest.raises(NonClosedSystem):
        generate_group(rs, cap=5)


def test_axis_kappas_detected_once():
    rs = root_system("z2^2", multiplicity=[0.5, 2.0])
    k = rs.axis_kappas()
    assert k.tolist() == [0.5, 2.0] and rs.axis_kappas() is k
    with pytest.raises(ValueError):
        k[0] = 1.0
    assert root_system("a2", multiplicity=1).axis_kappas() is None
