"""Exact scalars of the form sum_m c_m * sqrt(m) with rational c_m.

The exact coordinates of the catalogued root systems (Z2^d, A2, B2,
I2(3|4|6)) live in a real quadratic-surd extension of Q generated by sqrt(2)
and sqrt(3): root coordinates contribute sqrt(2) factors and reflection
matrices sqrt(3)/2 entries.  This module implements that field on top of
stdlib Fractions, closed under +, -, * and the inverse, with exact zero
tests.

Surds live only where those coordinates enter the Dunkl algebra of polyalg:
the sigma rows, the reflection pullbacks x^e o sigma, and the commutator sums
[T_j, x_m](x^b) = delta_jm x^b + sum kappa alpha_j alpha_m (x^b o sigma).
Exact mode divides by no <x, alpha>; the surd division of polyalg serves
float mode and, in exact mode, the tests as an oracle.  Every T_j(x^e) comes
out rational on these groups, so every value downstream of T_j (Gram blocks,
the Hermite system, norms, delta_j pairings) is rational.

The block linear algebra downstream of T_j (hermite, spectral) carries these
rationals as integer vectors over one denominator: each column of the matrix
M_j^(k) of T_j on a degree block (over one denominator for the matrix, as
are the Laplacian and oscillator blocks built from them), each row of a Gram
block G_k and of W_k = Psi_k^T G_k, each psi_n, each degree of H_raw_n and
each column of H_k.  Sums and products are then Python int arithmetic with no
gcd per operation, as in fraction-free elimination (Bareiss, Math. Comp. 22,
1968).  A vector's common factor is divided out once (reduced), and each
value a caller sees (psi_n, the norms, H_raw_n, the delta_j pairings, the
eigen residuals) is turned back once into the same Fraction or float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """Factor n = s*s*f with f squarefree; return (s, f). n must be positive."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, f, d, m = 1, 1, 2, n
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    return s, f * m


@lru_cache(maxsize=None)
def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


@lru_cache(maxsize=None)
def _sqrt_float(m: int) -> float:
    return math.sqrt(m)


class Surd:
    """A finite sum of c_m * sqrt(m); keys m are squarefree positive ints."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # terms must already be normalized: squarefree keys, no zero values
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(value) -> "Surd":
        if isinstance(value, Surd):
            return value
        value = Fraction(value)
        return Surd({1: value} if value else {})

    @staticmethod
    def sqrt_int(n: int, scale=1) -> "Surd":
        """scale * sqrt(n), exactly."""
        s, f = squarefree_split(n)
        c = Fraction(scale) * s
        return Surd({f: c} if c else {})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c2 = terms.get(m, 0) + c
            if c2:
                terms[m] = c2
            else:
                terms.pop(m, None)
        return Surd(terms)

    __radd__ = __add__

    def __neg__(self):
        return Surd({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a rational factor only scales the other's coefficients; this gives
        # the same terms, in the same order, as the general product below
        if len(other.terms) == 1 and 1 in other.terms:
            r = other.terms[1]
            return Surd({m: c * r for m, c in self.terms.items()})
        if len(self.terms) == 1 and 1 in self.terms:
            r = self.terms[1]
            return Surd({m: r * c for m, c in other.terms.items()})
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                g = math.gcd(m1, m2)
                key = (m1 // g) * (m2 // g)
                c = c1 * c2 * g
                c3 = terms.get(key, 0) + c
                if c3:
                    terms[key] = c3
                else:
                    terms.pop(key, None)
        return Surd(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Surd.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- field inverse ------------------------------------------------------

    def conjugate_wrt(self, p: int) -> "Surd":
        """Galois conjugate flipping the sign of sqrt(p)."""
        return Surd({m: (-c if m % p == 0 else c) for m, c in self.terms.items()})

    def inverse(self) -> "Surd":
        if not self.terms:
            raise ZeroDivisionError("surd division by zero")
        if len(self.terms) == 1:  # (c sqrt(m))^-1 = sqrt(m) / (c m)
            (m, c), = self.terms.items()
            return Surd({m: 1 / (c * m)})
        num, den = Surd.of(1), self
        while not den.is_rational():
            key = max(m for m in den.terms if m > 1)
            p = _smallest_prime_factor(key)
            conj = den.conjugate_wrt(p)
            num = num * conj
            den = den * conj
        r = den.terms[1]
        return num * Surd.of(Fraction(r.denominator, r.numerator))

    # -- queries ------------------------------------------------------------

    def is_rational(self) -> bool:
        return all(m == 1 for m in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __float__(self):
        return float(sum(float(c) * _sqrt_float(m) for m, c in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Surd(0)"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            parts.append(str(c) if m == 1 else f"{c}*sqrt({m})")
        return "Surd(" + " + ".join(parts) + ")"


def _coerce(value):
    if isinstance(value, Surd):
        return value
    if isinstance(value, (int, Fraction)):
        v = Fraction(value)
        return Surd({1: v} if v else {})
    return NotImplemented


SQRT2 = Surd.sqrt_int(2)


def over_one_denominator(values) -> tuple[list[int], int]:
    """Rationals (Fractions or ints) as integer numerators over their least
    common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with the common factor of den and every num divided out,
    over a positive denominator."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [n // g for n in nums], den // g


def apply_columns(columns: list, x: list[int], size: int) -> list[int]:
    """The integer product A x, with the matrix A by sparse columns (each the
    pairs (row, numerator)) and x an integer vector: a list of size entries."""
    out = [0] * size
    for column, xb in zip(columns, x):
        if xb:
            for r, v in column:
                out[r] += v * xb
    return out
