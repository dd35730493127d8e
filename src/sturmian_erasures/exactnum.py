"""Exact arithmetic for numbers of the form sum(q_b * sqrt(b)) with rational q_b.

Basis keys b are square-free positive integers (b = 1 carries the rational
part).  Square roots of distinct square-free integers are linearly
independent over the rationals, so equality, sign and floor are decidable
with no rounding error.  Every decision runs on integer fixed-point
enclosures lo <= 2**k * x <= hi built from math.isqrt and refined exactly by
doubling k; no floating point enters any decision.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

from . import _EXPORTS

__all__ = _EXPORTS["exactnum"]

# parse_number rejects larger sqrt arguments: trial division of n takes about
# sqrt(n)/2 steps, a fraction of a second at this bound.
_SQRT_ARG_MAX = 10**12


def _squarefree_split(k):
    """Return (m, d) with k = m*m*d and d square-free, by trial division.
    Only an int that is not a bool is a key: a float or a bool would pass
    as one and break the integer forms built from it."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"square root argument must be a positive integer, got {k!r}")
    m, d, n, p = 1, 1, k, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return m, d * n


def _enclose(ints, k):
    """Integers lo <= 2**k * x <= hi for x = sum(c * sqrt(b)) over the
    integer coefficients c of the square-free keys b in ints."""
    lo = hi = 0
    for b, c in ints.items():
        if b == 1:
            lo += c << k
            hi += c << k
            continue
        # s <= 2**k * sqrt(b) < s + 1
        s = math.isqrt(b << (2 * k))
        lo += c * s
        hi += c * s
        if c > 0:
            hi += c
        else:
            lo += c
    return lo, hi


def _sign_of(ints):
    """Exact sign of sum(c * sqrt(b)) for integer coefficients c."""
    if not any(c for b, c in ints.items() if b != 1):
        c = ints.get(1, 0)
        return (c > 0) - (c < 0)
    # An irrational value is never 0, so its floor settles its sign.
    return 1 if _floor_of(ints, 1) >= 0 else -1


def _floor_of(ints, den, div=operator.floordiv):
    """floor(sum(c * sqrt(b)) / den) for integer coefficients c and den > 0,
    or its nearest float with div=operator.truediv: both round monotonically,
    so once both ends of an enclosure round alike, so does the value.  A
    rational value divides exactly, as int / int rounds correctly."""
    if not any(c for b, c in ints.items() if b != 1):
        return div(ints.get(1, 0), den)
    k = 64
    while True:
        lo, hi = _enclose(ints, k)
        unit = den << k
        f = div(lo, unit)
        if f == div(hi, unit):
            return f
        # An irrational value is never an integer, nor a float or the
        # midpoint of two, so the enclosure eventually rounds alike.
        k *= 2


def _operand(method):
    """The binary method with an int or Fraction operand embedded by
    rational(), returning NotImplemented for any other type."""

    @functools.wraps(method)
    def embedded(self, other):
        if not isinstance(other, SqrtBasisNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = rational(other)
        return method(self, other)

    return embedded


def _order(op):
    """The comparison op(self, other), read off the exact sign of self - other."""
    return _operand(lambda self, other: op((self - other).sign(), 0))


class SqrtBasisNumber:
    """Immutable exact value sum(c_b * sqrt(b)) / den over square-free keys b,
    stored as nonzero integers c_b over one den > 0, in lowest terms."""

    __slots__ = ("_ints", "_den")

    def __init__(self, coords=None):
        x = sum((sqrt(b) * rational(q) for b, q in (coords or {}).items()), rational(0))
        self._ints, self._den = x._ints, x._den

    @property
    def coords(self):
        return {b: Fraction(c, self._den) for b, c in self._ints.items()}

    # -- ring operations ------------------------------------------------------

    def _plus(self, other, sign=1):
        """self + sign*other for sign = 1 or -1, over the product of the dens."""
        out = {b: c * other._den for b, c in self._ints.items()}
        for b, c in other._ints.items():
            out[b] = out.get(b, 0) + sign * c * self._den
        return _make(out, self._den * other._den)

    __add__ = __radd__ = _operand(_plus)
    __sub__ = _operand(lambda self, other: self._plus(other, -1))
    __rsub__ = _operand(lambda self, other: other._plus(self, -1))

    def __neg__(self):
        return _make({b: -c for b, c in self._ints.items()}, self._den)

    @_operand
    def __mul__(self, other):
        out = {}
        for a, p in self._ints.items():
            for b, q in other._ints.items():
                # sqrt(a)*sqrt(b) = g*sqrt((a/g)*(b/g)) with g = gcd(a, b); the
                # two cofactors are coprime and square-free, so the key is too
                g = math.gcd(a, b)
                key = (a // g) * (b // g)
                out[key] = out.get(key, 0) + p * q * g
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def _inverse(self):
        if not self._ints:
            raise ZeroDivisionError("division by zero")
        if len(self._ints) == 1:  # c*sqrt(b)/den, rational when b = 1
            ((b, c),) = self._ints.items()
            return _make({b: self._den if c > 0 else -self._den}, abs(c) * b)
        keys = [b for b in self._ints if b != 1]
        # Find g > 1 that divides each key or is coprime to it, by gcd
        # refinement.  For any prime p | g the automorphism sigma_p negates
        # exactly the keys divisible by g, and with x = A + B where B collects
        # those keys, x * sigma_p(x) = A*A - B*B has no key divisible by a
        # prime of g, so the recursion strictly shrinks the prime support.
        g = keys[0]
        split = True
        while split:
            split = False
            for b in keys:
                h = math.gcd(g, b)
                if h not in (1, g):
                    g, split = h, True
        conj = _make({b: (-c if b % g == 0 else c) for b, c in self._ints.items()}, self._den)
        return conj * (self * conj)._inverse()

    @_operand
    def __truediv__(self, other):
        return self * other._inverse()

    @_operand
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _make({1: 1}, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- exact comparisons ----------------------------------------------------

    def is_zero(self):
        return not self._ints

    def is_rational(self):
        return self._ints.keys() <= {1}

    def sign(self):
        """Exact sign in {-1, 0, +1} by integer interval refinement."""
        return _sign_of(self._ints)

    def floor(self):
        """The unique integer m with m <= x < m + 1."""
        return _floor_of(self._ints, self._den)

    @_operand
    def __eq__(self, other):
        return self._den == other._den and self._ints == other._ints

    def __hash__(self):
        # Equal to an int or Fraction exactly when rational, so hash as one.
        if self.is_rational():
            return hash(Fraction(self._ints.get(1, 0), self._den))
        return hash((self._den, *sorted(self._ints.items())))

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __bool__(self):
        return bool(self._ints)

    # -- presentation ---------------------------------------------------------

    def __float__(self):
        return _floor_of(self._ints, self._den, operator.truediv)

    def __str__(self):
        if not self._ints:
            return "0"
        parts = []
        for b in sorted(self._ints):
            c = self._ints[b]
            g = math.gcd(c, self._den)
            q = f"{abs(c) // g}" if g == self._den else f"{abs(c) // g}/{self._den // g}"
            term = q if b == 1 else f"{q}*sqrt({b})"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"SqrtBasisNumber({self.coords!r})"


def _make(ints, den):
    """The value sum(c * sqrt(b)) / den for integers c of square-free keys b
    and den > 0, with zero coefficients dropped and in lowest terms."""
    x = object.__new__(SqrtBasisNumber)
    g = math.gcd(den, *ints.values())
    x._ints = {b: c // g for b, c in ints.items() if c}
    x._den = den // g
    return x


def rational(q):
    """Embed an integer, a Fraction, or anything Fraction() accepts."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return _make({1: q.numerator}, q.denominator)


def sqrt(k):
    """Exact square root of a positive integer."""
    m, d = _squarefree_split(k)
    return _make({d: m}, 1)


# -- expression grammar -----------------------------------------------------------

# parse_number rejects longer expressions before parsing them.  This also
# caps the nesting the parser recurses through.  It bounds the time as well:
# inverting a product of sqrt sums costs about 16x more per distinct sqrt
# factor, and 100 characters hold at most seven of them.
_EXPR_MAX = 100
# Blanks, then an integer, sqrt, or any other character for the grammar to refuse.
_TOKEN = re.compile(r"[ \t]*(0+|[1-9][0-9]*|sqrt|.)", re.S)
# Rational operands stay int or Fraction until they meet a square root.
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": lambda x, y: (
    x / y if isinstance(x, SqrtBasisNumber) or isinstance(y, SqrtBasisNumber) else Fraction(x, y))}


def parse_number(text):
    """Parse an expression such as "(3-sqrt(5))/2" into an exact value.

    The grammar, blanks (spaces and tabs) allowed around every token:
        sum     = product {("+" | "-") product}
        product = factor {("*" | "/") factor}
        factor  = {"+" | "-"} (integer | "sqrt" "(" sum ")" | "(" sum ")")
    An integer is a run of decimal digits without a leading 0, or zeros.
    """
    expr = text.strip()
    if len(expr) > _EXPR_MAX:
        raise ValueError(f"bad number expression: {len(expr)} characters, more than {_EXPR_MAX}")
    tokens = ["", *reversed(_TOKEN.findall(expr))]  # popped from the end; "" ends them
    try:
        x = _fold(tokens, "+-")
        _take(tokens, "")
    except ZeroDivisionError:
        raise ValueError(f"bad number expression {text!r}: division by zero") from None
    except ValueError as exc:
        raise ValueError(f"bad number expression {text!r}: {exc}") from None
    return x if isinstance(x, SqrtBasisNumber) else rational(x)


def _take(tokens, expected):
    token = tokens.pop()
    if token != expected:
        raise ValueError(f"unexpected {token or 'end'!r}")


def _fold(tokens, ops):
    """A sum of products (ops "+-") or a product of factors ("*/")."""
    x = _factor(tokens) if ops == "*/" else _fold(tokens, "*/")
    while tokens[-1] and tokens[-1] in ops:
        x = _ARITH[tokens.pop()](x, _factor(tokens) if ops == "*/" else _fold(tokens, "*/"))
    return x


def _factor(tokens):
    token = tokens.pop()
    if token in ("+", "-"):
        x = _factor(tokens)
        return -x if token == "-" else x
    if "0" <= token[:1] <= "9":
        return int(token)
    if token != "sqrt":
        tokens.append(token)  # then it must be "("
    _take(tokens, "(")
    x = _fold(tokens, "+-")
    _take(tokens, ")")
    if token != "sqrt":
        return x
    # The argument is a value that is an integer from 1 to _SQRT_ARG_MAX.
    if isinstance(x, SqrtBasisNumber) and x.is_rational():
        x = Fraction(x._ints.get(1, 0), x._den)
    if isinstance(x, SqrtBasisNumber) or x.denominator != 1 or x <= 0:
        raise ValueError(f"sqrt argument must be a positive integer, got {x}")
    if x > _SQRT_ARG_MAX:
        raise ValueError(f"sqrt argument {x} exceeds the limit {_SQRT_ARG_MAX}")
    return sqrt(int(x))
