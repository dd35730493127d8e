"""Property tests of exact sign and floor against integer-only rules."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sturmian_erasures import rational, sqrt  # noqa: E402


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
