"""Property tests of exact sign and floor against integer-only rules."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sturmian_erasures import SqrtBasisNumber, rational, sqrt  # noqa: E402


def _squaring_sign(a, b, d):
    """Sign of a + b*sqrt(d) from integers alone: compare a*a with b*b*d."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -1
    diff = a * a - b * b * d
    return (diff > 0) - (diff < 0) if a > 0 else (diff < 0) - (diff > 0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    a=st.integers(-(10**30), 10**30),
    b=st.integers(-(10**30), 10**30),
    d=st.integers(2, 10**6),
    e=st.integers(1, 10**6),
)
def test_sign_and_floor_match_integer_rules(a, b, d, e):
    x = rational(a) + rational(b) * sqrt(d)
    assert x.sign() == _squaring_sign(a, b, d)
    # floor(b*sqrt(d)) = +-isqrt(b*b*d), one lower when negative and inexact
    r = math.isqrt(b * b * d)
    fb = r if b >= 0 else -r - (r * r != b * b * d)
    assert (x / rational(e)).floor() == (a + fb) // e


def _same(x, y):
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


@pytest.mark.parametrize("n", [0, 1, -1, -7, True, False, 10**199 + 7, -(3**419)])
def test_rational_of_an_int_matches_the_general_constructor(n):
    _same(rational(n), SqrtBasisNumber({1: n}))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(n=st.integers(-(10**200), 10**200))
def test_rational_of_any_int_matches_the_general_constructor(n):
    _same(rational(n), SqrtBasisNumber({1: n}))


def test_sqrt_matches_the_general_constructor():
    # Squares and square factors included: 4, 8, 12, 9801, 10000, ...
    for k in range(1, 10**4 + 1):
        _same(sqrt(k), SqrtBasisNumber({k: 1}))


_coords = st.dictionaries(
    st.sampled_from([1, 2, 3, 5, 6, 8, 12, 30]),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
    max_size=5,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=_coords, b=_coords)
def test_difference_matches_sum_with_negation(a, b):
    x, y = SqrtBasisNumber(a), SqrtBasisNumber(b)
    _same(x - y, x + (-y))
    _same(y - x, y + (-x))
    _same(x - x, rational(0))
    n = int(b.get(1, 0))
    _same(x - n, x + rational(-n))
    _same(n - x, rational(n) + (-x))
