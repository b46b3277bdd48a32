import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dunklriesz.qfield import Surd, squarefree_split


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(2) == (1, 2)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(36) == (6, 1)


def test_sqrt_products_stay_canonical():
    s2, s3 = Surd.sqrt_int(2), Surd.sqrt_int(3)
    assert s2 * s2 == Surd.of(2)
    assert s2 * s3 == Surd.sqrt_int(6)
    assert Surd.sqrt_int(6) * s2 == Surd.sqrt_int(3, 2)
    assert float(Surd.sqrt_int(8)) == pytest.approx(2 * math.sqrt(2), rel=1e-15)


def test_inverse_multi_surd():
    z = Surd.of(Fraction(1, 2)) + Surd.sqrt_int(2) - Surd.sqrt_int(3, Fraction(2, 5)) + Surd.sqrt_int(6, 3)
    assert z * z.inverse() == Surd.of(1)
    assert float(z.inverse()) == pytest.approx(1.0 / float(z), rel=1e-14)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        Surd.of(0).inverse()


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def surds():
    return st.builds(
        lambda a, b, c: Surd.of(a) + Surd.sqrt_int(2, b) + Surd.sqrt_int(3, c),
        rationals, rationals, rationals,
    )


@given(surds(), surds(), surds())
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x - y) + y == x
    assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-9, abs=1e-9)


@given(surds())
def test_division_round_trip(x):
    if x:
        assert (x * x) / x == x


def _mul_reference(x, y):
    """The general term-by-term product, without the rational-factor path."""
    terms = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            g = math.gcd(m1, m2)
            key = (m1 // g) * (m2 // g)
            c3 = terms.get(key, 0) + c1 * c2 * g
            if c3:
                terms[key] = c3
            else:
                terms.pop(key, None)
    return terms


@given(surds(), rationals)
def test_rational_factor_product_matches_reference(x, r):
    """Same coefficients in the same key order, which float(Surd) sums in."""
    q = Surd.of(r)
    assert list((x * q).terms.items()) == list(_mul_reference(x, q).items())
    assert list((q * x).terms.items()) == list(_mul_reference(q, x).items())
