"""Root systems, finite reflection groups, multiplicities, and the weight w_kappa.

All roots are normalized to |alpha|^2 = 2, so the reflection across alpha's
mirror hyperplane is x -> x - <x,alpha> alpha.  Catalogued systems (Z2^d, A2,
B2, I2(m)) carry exact quadratic-surd coordinates whenever possible, which
lets the polynomial layer run in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .qfield import Surd, SQRT2

ROOT_NORM_TOL = 1e-12
GROUP_CAP_DEFAULT = 10**6


class InvalidRootSystem(ValueError):
    """Root system violates a structural invariant (reduced/closure/invariance)."""


class NonClosedSystem(InvalidRootSystem):
    """Group closure exceeded the element cap; the root set is not a root system."""


def reflect(alpha, x):
    """Reflection across the hyperplane orthogonal to alpha, x - 2 (x.u) u
    with the unit root u: for an axis root sqrt(2) e_j, u = e_j exactly and
    x_j becomes -x_j bit for bit.

    Accepts a single point (d,) or a batch (..., d); pure and involutive.
    """
    u = np.asarray(alpha, dtype=float)
    u = u / np.linalg.norm(u)
    x = np.asarray(x, dtype=float)
    return x - 2.0 * np.tensordot(x, u, axes=(-1, -1))[..., None] * u


def reflection_matrix(alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    return np.eye(alpha.size) - np.outer(alpha, alpha)


def _exact_reflection_matrix(alpha_exact):
    d = len(alpha_exact)
    return tuple(
        tuple(
            (Surd.of(1) if i == j else Surd.of(0)) - alpha_exact[i] * alpha_exact[j]
            for j in range(d)
        )
        for i in range(d)
    )


@dataclass(eq=False)
class ReflectionGroup:
    """Finite orthogonal group generated by the root reflections."""

    matrices: np.ndarray            # (order, d, d), identity first

    @property
    def order(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def orbit(self, x) -> np.ndarray:
        """All images g.x, shape (order, d)."""
        return self.matrices @ np.asarray(x, dtype=float)


@dataclass(eq=False)
class RootSystem:
    dim: int
    positive_roots: np.ndarray          # (m, d) float, each |alpha|^2 = 2
    multiplicity: np.ndarray            # (m,) float, >= 0
    name: str = "explicit"
    exact_roots: tuple | None = None    # tuple of tuples of Surd, or None
    multiplicity_exact: tuple | None = None  # tuple of Fraction, or None
    orbits: tuple = ()
    _group: ReflectionGroup | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def num_roots(self) -> int:
        return self.positive_roots.shape[0]

    @property
    def exact_capable(self) -> bool:
        return self.exact_roots is not None and self.multiplicity_exact is not None

    @property
    def group(self) -> ReflectionGroup:
        if self._group is None:
            self._group = generate_group(self)
        return self._group

    def axis_kappas(self):
        """Per-axis multiplicities when this is a Z2^d system, else None.

        Detected once per system; the array is read-only because every
        caller shares it.
        """
        if "axis_kappas" not in self._cache:
            kappas = self._detect_axis_kappas()
            if kappas is not None:
                kappas.flags.writeable = False
            self._cache["axis_kappas"] = kappas
        return self._cache["axis_kappas"]

    def _detect_axis_kappas(self):
        if self.num_roots != self.dim:
            return None
        kappas = np.zeros(self.dim)
        seen = set()
        for alpha, k in zip(self.positive_roots, self.multiplicity):
            j = int(np.argmax(np.abs(alpha)))
            ref = np.zeros(self.dim)
            ref[j] = np.sqrt(2.0) * np.sign(alpha[j])
            if j in seen or not np.allclose(alpha, ref, atol=1e-10):
                return None
            seen.add(j)
            kappas[j] = k
        return kappas


def gamma(rs: RootSystem) -> float:
    """Sum of multiplicities over the positive roots (degree of homogeneity / 2)."""
    return float(np.sum(rs.multiplicity))


def gamma_exact(rs: RootSystem) -> Fraction:
    if rs.multiplicity_exact is None:
        raise ValueError("root system has no exact multiplicities")
    return sum(rs.multiplicity_exact, Fraction(0))


def weight(rs: RootSystem, x) -> np.ndarray | float:
    """w_kappa(x) = prod over positive roots of |<alpha,x>|^(2 kappa(alpha)).

    Accepts a point (d,) or batch (..., d); G-invariant and homogeneous of
    degree 2*gamma; vanishes on mirrors where kappa > 0.
    """
    x = np.asarray(x, dtype=float)
    dots = np.abs(np.tensordot(x, rs.positive_roots, axes=(-1, -1)))
    out = np.prod(dots ** (2.0 * rs.multiplicity), axis=-1)
    return float(out) if out.ndim == 0 else out


def min_orbit_distance(group: ReflectionGroup, x, y) -> float:
    """min over g in G of |g.x - y|; zero iff y lies on the orbit of x."""
    diffs = group.orbit(x) - np.asarray(y, dtype=float)
    return float(np.min(np.linalg.norm(diffs, axis=-1)))


def orbit_distances(group: ReflectionGroup, X, Y) -> np.ndarray:
    """Vectorized min_g |g.x - y| for batches X, Y of shape (..., d)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gx = np.einsum("gij,...j->...gi", group.matrices, X)
    return np.min(np.linalg.norm(gx - Y[..., None, :], axis=-1), axis=-1)


def generate_group(rs: RootSystem, cap: int = GROUP_CAP_DEFAULT) -> ReflectionGroup:
    """Closure of the root reflections under composition (breadth-first).

    Deduplication hashes matrices rounded to 1e-9.  Raises NonClosedSystem if
    the closure exceeds `cap`, which signals an invalid root set.
    """
    d = rs.dim
    gens = [reflection_matrix(a) for a in rs.positive_roots]

    def key(M):
        # + 0.0 forces -0.0 -> +0.0 so signed zeros hash identically
        return (np.round(M, 9) + 0.0).tobytes()

    mats = [np.eye(d)]
    seen = {key(mats[0]): 0}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            for g in gens:
                M = g @ mats[idx]
                k = key(M)
                if k not in seen:
                    if len(mats) >= cap:
                        raise NonClosedSystem(
                            f"group closure exceeded cap={cap}; root set is not closed"
                        )
                    seen[k] = len(mats)
                    mats.append(M)
                    nxt.append(len(mats) - 1)
        frontier = nxt
    return ReflectionGroup(matrices=np.array(mats))


# ---------------------------------------------------------------------------
# catalogue


def _z2d(dim: int):
    roots = np.sqrt(2.0) * np.eye(dim)
    exact = tuple(
        tuple(SQRT2 if i == j else Surd.of(0) for i in range(dim)) for j in range(dim)
    )
    return roots, exact


_EXACT_COS_SIN = {
    # angle in degrees -> exact sqrt(2)*(cos, sin) as Surds
    0: (SQRT2, Surd.of(0)),
    30: (Surd.sqrt_int(6, Fraction(1, 2)), Surd.sqrt_int(2, Fraction(1, 2))),
    45: (Surd.of(1), Surd.of(1)),
    60: (Surd.sqrt_int(2, Fraction(1, 2)), Surd.sqrt_int(6, Fraction(1, 2))),
    90: (Surd.of(0), SQRT2),
    120: (Surd.sqrt_int(2, Fraction(-1, 2)), Surd.sqrt_int(6, Fraction(1, 2))),
    135: (Surd.of(-1), Surd.of(1)),
    150: (Surd.sqrt_int(6, Fraction(-1, 2)), Surd.sqrt_int(2, Fraction(1, 2))),
}


def _dihedral(m: int):
    """Positive roots of I2(m): sqrt(2)*(cos(k pi/m), sin(k pi/m)), k=0..m-1."""
    angles = [k * np.pi / m for k in range(m)]
    roots = np.sqrt(2.0) * np.stack([np.array([np.cos(t), np.sin(t)]) for t in angles])
    degs = [round(np.degrees(t)) for t in angles]
    if all(dg in _EXACT_COS_SIN for dg in degs):
        exact = tuple(_EXACT_COS_SIN[dg] for dg in degs)
    else:
        exact = None
    return roots, exact


def _b2():
    roots = np.array([[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)], [1.0, 1.0], [1.0, -1.0]])
    exact = (
        (SQRT2, Surd.of(0)),
        (Surd.of(0), SQRT2),
        (Surd.of(1), Surd.of(1)),
        (Surd.of(1), Surd.of(-1)),
    )
    return roots, exact


def _compute_orbits(rs_roots: np.ndarray, group_mats: np.ndarray):
    """Partition positive-root indices into G-orbits (alpha ~ +-g.alpha)."""
    m = rs_roots.shape[0]
    labels = [-1] * m
    nxt = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        labels[i] = nxt
        images = group_mats @ rs_roots[i]
        for j in range(i + 1, m):
            dj = np.linalg.norm(images - rs_roots[j], axis=-1)
            dj2 = np.linalg.norm(images + rs_roots[j], axis=-1)
            if min(dj.min(), dj2.min()) < 1e-8:
                labels[j] = nxt
        nxt += 1
    orbits = [tuple(i for i in range(m) if labels[i] == o) for o in range(nxt)]
    return tuple(orbits)


def _normalize_multiplicity(values, n_roots: int, orbits):
    """Broadcast scalar / per-orbit / per-root multiplicities to per-root."""
    if np.isscalar(values) or isinstance(values, (int, float, Fraction, str)):
        values = [values]
    values = list(values)
    fracs = []
    for v in values:
        try:
            fracs.append(Fraction(str(v)) if isinstance(v, float) else Fraction(v))
        except (ValueError, TypeError):
            fracs.append(None)
    if len(values) == 1:
        per_root = values * n_roots
        per_root_frac = fracs * n_roots
    elif len(values) == len(orbits):
        per_root = [None] * n_roots
        per_root_frac = [None] * n_roots
        for o, orbit in enumerate(orbits):
            for i in orbit:
                per_root[i] = values[o]
                per_root_frac[i] = fracs[o]
    elif len(values) == n_roots:
        per_root = values
        per_root_frac = fracs
    else:
        raise InvalidRootSystem(
            f"multiplicity length {len(values)} matches neither 1, "
            f"#orbits={len(orbits)}, nor #roots={n_roots}"
        )
    mult = np.array([float(v) for v in per_root])
    if np.any(mult < 0):
        raise InvalidRootSystem("multiplicities must be nonnegative")
    exact = tuple(per_root_frac) if all(f is not None for f in per_root_frac) else None
    return mult, exact


def _validate_roots(roots: np.ndarray):
    """Norm, reducedness and closure tests; cheap, so they run before the
    group is generated (a non-closed set would fill the BFS up to its cap)."""
    norms = np.einsum("ij,ij->i", roots, roots)
    if not np.allclose(norms, 2.0, atol=ROOT_NORM_TOL * 10):
        raise InvalidRootSystem("roots must satisfy |alpha|^2 = 2")
    # reduced: no positive root is a multiple of another, so that each
    # mirror enters w_kappa once
    m = roots.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if min(np.linalg.norm(roots[i] - roots[j]), np.linalg.norm(roots[i] + roots[j])) < 1e-9:
                raise InvalidRootSystem("duplicate positive root (or its negative)")
    # closure: sigma_alpha(beta) lands in R = R+ u -R+
    full = np.vstack([roots, -roots])
    for a in roots:
        for b in full:
            img = reflect(a, b)
            if np.min(np.linalg.norm(full - img, axis=1)) > 1e-8:
                raise InvalidRootSystem("root set not closed under its reflections")


def _validate_multiplicity(rs: RootSystem):
    """Multiplicities must be constant on each G-orbit of roots."""
    for orbit in rs.orbits:
        vals = rs.multiplicity[list(orbit)]
        if np.ptp(vals) > 1e-12:
            raise InvalidRootSystem(
                f"multiplicity not G-invariant on orbit {orbit}: {vals}"
            )


def root_system(
    name: str | None = None,
    dim: int | None = None,
    multiplicity=0.0,
    roots=None,
) -> RootSystem:
    """Build a root system from the catalogue or an explicit root list.

    Catalogue names: 'z2' (d=1), 'z2^d' (e.g. 'z2^2', or dim=...), 'a2', 'b2',
    'i2(m)'.  Multiplicity may be a scalar, one value per orbit, or one per
    positive root; values must be >= 0 and constant on orbits.  Explicit roots
    are rescaled to |alpha|^2 = 2.
    """
    exact = None
    if roots is not None:
        roots = np.asarray(roots, dtype=float)
        norms = np.linalg.norm(roots, axis=1)
        if np.any(norms < 1e-12):
            raise InvalidRootSystem("zero root")
        roots = roots * (np.sqrt(2.0) / norms)[:, None]
        label = name or "explicit"
    else:
        if name is None:
            raise InvalidRootSystem("need a catalogue name or explicit roots")
        label = name.strip().lower()
        if label.startswith("z2"):
            if label == "z2":
                d = dim or 1
            elif label.startswith("z2^"):
                d = int(label[3:])
            else:
                raise InvalidRootSystem(f"unknown catalogue name {name!r}")
            if dim is not None and dim != d:
                raise InvalidRootSystem("dim disagrees with catalogue name")
            roots, exact = _z2d(d)
        elif label == "a2":
            roots, exact = _dihedral(3)
        elif label == "b2":
            roots, exact = _b2()
        elif label.startswith("i2(") and label.endswith(")"):
            m = int(label[3:-1])
            if m < 3:
                raise InvalidRootSystem("i2(m) needs m >= 3")
            roots, exact = _dihedral(m)
        else:
            raise InvalidRootSystem(f"unknown catalogue name {name!r}")

    d = roots.shape[1]
    _validate_roots(roots)
    # the group depends on the roots only; multiplicities need its orbits
    group = generate_group(RootSystem(
        dim=d, positive_roots=roots, multiplicity=np.zeros(len(roots)), exact_roots=exact))
    orbits = _compute_orbits(roots, group.matrices)
    mult, mult_exact = _normalize_multiplicity(multiplicity, roots.shape[0], orbits)
    rs = RootSystem(
        dim=d,
        positive_roots=roots,
        multiplicity=mult,
        name=label,
        exact_roots=exact,
        multiplicity_exact=mult_exact,
        orbits=orbits,
        _group=group,
    )
    _validate_multiplicity(rs)
    return rs
