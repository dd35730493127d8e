import math
import operator
import random
import re
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest

from sturmian_erasures import SqrtBasisNumber, parse_number, rational, sqrt
import sturmian_erasures.exactnum as exactnum
from sturmian_erasures.exactnum import _enclose


def test_sqrt2_squares_to_two():
    assert sqrt(2) * sqrt(2) == rational(2)


def test_golden_ratio_arithmetic():
    theta = (rational(1) + sqrt(5)) / rational(2)
    frac = theta - rational(1)
    assert frac == (rational(-1) + sqrt(5)) / rational(2)
    assert frac * frac == (rational(3) - sqrt(5)) / rational(2)


def test_sign_examples():
    assert (sqrt(2) - sqrt(2)).sign() == 0
    assert (sqrt(2) + sqrt(3) - sqrt(6)).sign() == 1
    theta = (rational(1) + sqrt(5)) / rational(2)
    slope = (rational(3) - sqrt(5)) / rational(2)
    assert (slope - rational(1)).sign() == -1
    assert (theta - rational(1)).sign() == 1


def test_floor_examples():
    assert sqrt(2).floor() == 1
    assert (-sqrt(2)).floor() == -2
    slope = (rational(3) - sqrt(5)) / rational(2)
    assert slope.floor() == 0
    assert rational(Fraction(-7, 2)).floor() == -4
    assert rational(3).floor() == 3


def _pell(n):
    """(p, q) with p + q*sqrt(2) = (1 + sqrt(2))**n, so p - q*sqrt(2) = (1 - sqrt(2))**n."""
    p, q = 1, 0
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


@pytest.mark.parametrize("n", [66, 67])
def test_sign_and_floor_refine_past_first_precision(n):
    p, q = _pell(n)
    assert 10**24 < q < 10**26
    # |p - q*sqrt(2)| < 2**-64, so the first enclosure holds 0 and k must double.
    lo, hi = _enclose({1: p, 2: -q}, 64)
    assert lo <= 0 <= hi
    x = rational(p) - rational(q) * sqrt(2)
    assert x.sign() == (-1) ** n
    assert (-x).sign() == -((-1) ** n)
    assert x.floor() == (0 if n % 2 == 0 else -1)
    assert (x + rational(7)).floor() == (7 if n % 2 == 0 else 6)
    assert (x / rational(3)).floor() == (0 if n % 2 == 0 else -1)


def test_floor_brackets_value():
    rng = random.Random(7)
    for _ in range(200):
        x = _random_number(rng, (1, 2, 3, 6))
        n = x.floor()
        assert rational(n) <= x
        assert x < rational(n + 1)


def _random_coords(rng, bases):
    return {b: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for b in bases if rng.random() < 0.7}


def _random_number(rng, bases):
    return SqrtBasisNumber(_random_coords(rng, bases))


@pytest.mark.parametrize("bases", [(1, 2, 3, 6), (1, 5)])
def test_field_axioms(bases):
    rng = random.Random(sum(bases))
    for _ in range(250):
        x = _random_number(rng, bases)
        y = _random_number(rng, bases)
        z = _random_number(rng, bases)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
    hits = 0
    while hits < 100:
        x = _random_number(rng, bases)
        if x.is_zero():
            continue
        hits += 1
        assert x * (rational(1) / x) == rational(1)
        assert (rational(1) / (rational(1) / x)) == x


def test_sign_is_odd():
    rng = random.Random(11)
    for _ in range(200):
        x = _random_number(rng, (1, 2, 3, 6))
        assert (-x).sign() == -x.sign()


def _to_decimal(x):
    total = Decimal(0)
    for b, q in x.coords.items():
        root = Decimal(b).sqrt()
        total += Decimal(q.numerator) / Decimal(q.denominator) * root
    return total


def test_comparisons_match_high_precision_decimal():
    getcontext().prec = 110
    rng = random.Random(13)
    for _ in range(1000):
        x = _random_number(rng, (1, 2, 3, 6))
        y = _random_number(rng, (1, 2, 3, 6))
        dx, dy = _to_decimal(x), _to_decimal(y)
        if x == y:
            assert abs(dx - dy) < Decimal("1e-90")
        elif x < y:
            assert dx < dy
        else:
            assert dx > dy


def test_float_is_correctly_rounded():
    # The terms of these values cancel, so a sum of rounded floats loses
    # digits; float() rounds the exact value once, as the decimal does.
    assert float(parse_number("100000000000000000000*sqrt(2)-141421356237309504880")) == (
        0.16887242096980787
    )
    assert float(parse_number("1000000000000*sqrt(2)-1414213562373")) == 0.0950488016887242
    assert float(parse_number("(3-sqrt(5))/2")) == 0.38196601125010515
    assert float(rational(0)) == 0.0 and float(parse_number("-7/3")) == -7 / 3
    rng = random.Random(17)
    with localcontext() as ctx:
        ctx.prec = 80
        for _ in range(3000):
            p, q = rng.sample((2, 3, 5, 6, 7, 10, 11), 2)
            a, b = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
            x = SqrtBasisNumber({p: Fraction(a, rng.randint(1, 1000)), q: b})
            x = x - rational(x.floor())
            assert float(x) == float(_to_decimal(x))


def test_rational_floor_and_float_divide_exactly(monkeypatch):
    # A rational value needs no enclosure: its floor is c // den, and its
    # float c / den, which int / int rounds correctly.
    def no_enclosure(ints, k):
        raise AssertionError(f"rational value enclosed: {ints}")

    monkeypatch.setattr(exactnum, "_enclose", no_enclosure)
    rng = random.Random(3501)
    values = [Fraction(-7, 2), Fraction(-6, 3), Fraction(0), Fraction(10**30 - 1, 10**30)]
    for _ in range(2000):
        den = rng.randint(1, 10 ** rng.randint(0, 30))
        values.append(Fraction(rng.randint(-(10 ** rng.randint(0, 40)), 10 ** rng.randint(0, 40)), den))
    for q in values:
        # The second form cancels its sqrt(2) terms by arithmetic.
        for x in (rational(q), parse_number(f"sqrt(2) + {q.numerator}/{q.denominator} - sqrt(2)")):
            assert x.is_rational()
            assert x.floor() == math.floor(q), q
            assert float(x) == float(q), q


def test_parse_number_examples():
    theta = (rational(1) + sqrt(5)) / rational(2)
    assert parse_number("(1+sqrt(5))/2") == theta
    assert parse_number("(3-sqrt(5))/2") == (rational(3) - sqrt(5)) / rational(2)
    assert parse_number("1/2") == rational(Fraction(1, 2))
    assert parse_number("-3") == rational(-3)
    assert parse_number("2*sqrt(2) - sqrt(8)") == rational(0)
    assert parse_number("sqrt(4)") == rational(2)


@pytest.mark.parametrize(
    "text",
    ["sqrt(-1)", "sqrt(0)", "2**3", "sqrt(x)", "pi", "1/0", "1 +", "sqrt(1/2 + 1)", "1.5", "True",
     "sqrt(sqrt(2))", "01", "1\n+2", "(1\n+2)"],
)
def test_parse_number_rejects(text):
    with pytest.raises(ValueError):
        parse_number(text)


@pytest.mark.parametrize("text", ["0x10/32", "0o17", "0b11", "1_0/32", "1/3#c", "sqrt(2,)-1",
                                  "sqrt(2)**2", "1e3", "1j", "(1,)"])
def test_parse_number_accepts_only_its_grammar(text):
    # Python syntax outside the grammar: the first five and 0o17, 0b11
    # were once accepted, and ** answered with a dump of its syntax tree.
    prefix = re.escape(f"bad number expression {text!r}: unexpected")
    with pytest.raises(ValueError, match=f"^{prefix}"):
        parse_number(text)


def _ast_reference(text):
    """parse_number as it was when it evaluated the tree of ast.parse: the
    reference for the values and refusals of the grammar parser."""
    import ast

    binops = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv}

    def value(node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return rational(node.value)
            raise ValueError(f"unsupported literal {node.value!r}: use integers and p/q rationals")
        if isinstance(node, ast.BinOp) and type(node.op) in binops:
            return binops[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            x = value(node.operand)
            return -x if isinstance(node.op, ast.USub) else x
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt"
            and len(node.args) == 1
            and not node.keywords
        ):
            arg = value(node.args[0])
            if not arg.is_rational():
                raise ValueError("sqrt argument must be a positive integer")
            n = arg._ints.get(1, 0)
            if arg._den != 1 or n <= 0:
                raise ValueError(f"sqrt argument must be a positive integer, got {arg}")
            if n > 10**12:
                raise ValueError(f"sqrt argument {arg} exceeds the limit {10**12}")
            return sqrt(n)
        raise ValueError(f"unsupported expression element: {ast.dump(node)}")

    expr = text.strip()
    if len(expr) > 100:
        raise ValueError(f"bad number expression: {len(expr)} characters, more than 100")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(
            f"bad number expression {text!r}: syntax error at offset {exc.offset}"
        ) from None
    try:
        return value(tree.body)
    except ZeroDivisionError:
        raise ValueError(f"bad number expression {text!r}: division by zero") from None


def _grammar_texts():
    """Texts of the documented grammar, blanks and all, with integers that
    have leading zeros and sqrt, division and range errors mixed in."""
    from hypothesis import strategies as st

    blank = st.sampled_from(["", "", "", " ", "\t", "  "])
    integer = st.integers(0, 999).map(str) | st.sampled_from(["00", "007", "0010"])
    product = st.lists(st.integers(0, 40).map(str), min_size=1, max_size=6).map("*".join)
    leaf = (integer | st.builds("sqrt{}({}{})".format, blank, product, blank)
            | st.sampled_from(["sqrt(1000000000000)", "sqrt(1000000000001)"]))

    def extend(inner):
        return (st.builds("{}{}{}{}{}".format, inner, blank, st.sampled_from("+-*/"), blank, inner)
                | st.builds("{}{}".format, st.text("+-", min_size=1, max_size=4), inner)
                | st.builds("({}{}{})".format, blank, inner, blank)
                | st.builds("sqrt{}({})".format, blank, inner))

    nested = st.builds(lambda k, x: "(" * k + x + ")" * k, st.integers(0, 49), integer | leaf)
    chain = st.builds("{}{}".format, st.text("+- \t", max_size=98), integer)
    tree = st.builds("{}{}{}".format, blank, st.recursive(leaf, extend, max_leaves=10), blank)
    return tree | nested | chain


def test_parse_number_matches_the_ast_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_grammar_texts())
    def check(text):
        try:
            expected = _ast_reference(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_number(text)
        else:
            assert parse_number(text) == expected

    check()
    # The slowest kind of 100-character input, a quotient of a product of
    # seven sqrt sums, evaluates alike.
    text = "1/(" + "*".join(f"(1+sqrt({p}))" for p in (2, 3, 5, 7, 11, 13, 17)) + ")"
    assert len(text) <= 100 and parse_number(text) == _ast_reference(text)


@pytest.mark.parametrize("key", [2.5, 4.0, True, False, Fraction(4), "4", 0, -1])
def test_square_root_keys_are_ints(key):
    # A float key once built a value whose sign() raised TypeError (2.5) or
    # a key 1.0 (4.0), and True passed as the key 1.  A zero coefficient
    # once skipped the key check.
    with pytest.raises(ValueError, match="must be a positive integer"):
        sqrt(key)
    for coefficient in (1, 0):
        with pytest.raises(ValueError, match="must be a positive integer"):
            SqrtBasisNumber({key: coefficient})
    assert sqrt(4) == SqrtBasisNumber({4: 1}) == rational(2)
    assert sqrt(8) == SqrtBasisNumber({2: 2})


def test_parse_number_bounds_sqrt_argument():
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_number("sqrt(1000000000039*1000000000061)")
    # the largest prime below the bound still factors quickly
    assert parse_number("sqrt(999999999989)") == sqrt(999999999989)
    assert parse_number("sqrt(1000000000000)") == rational(10**6)


def test_parse_number_bounds_expression_length():
    # 100 characters pass, surrounding blanks not counted; 101 are refused.
    assert parse_number("  " + "+".join(["1"] * 50) + "0 ") == rational(59)
    assert parse_number("(" * 49 + "10" + ")" * 49) == rational(10)
    with pytest.raises(ValueError, match="101 characters, more than 100"):
        parse_number("1" + "+1" * 50)
    # The slowest kind of 100-character input, a quotient of a product of
    # seven sqrt sums, still evaluates.
    primes = (2, 3, 5, 7, 11, 13, 17)
    text = "1/(" + "*".join(f"(1+sqrt({p}))" for p in primes) + ")"
    assert len(text) <= 100
    value = parse_number(text)
    product = rational(1)
    for p in primes:
        product = product * (rational(1) + sqrt(p))
    assert value * product == rational(1)

def test_str_canonical_and_round_trips():
    slope = (rational(3) - sqrt(5)) / rational(2)
    assert str(slope) == "3/2 - 1/2*sqrt(5)"
    theta = (rational(1) + sqrt(5)) / rational(2)
    assert str(theta - rational(1)) == "-1/2 + 1/2*sqrt(5)"
    assert str(rational(0)) == "0"
    assert str(-sqrt(2)) == "-1*sqrt(2)" or str(-sqrt(2)) == "-sqrt(2)"
    rng = random.Random(17)
    for _ in range(200):
        x = _random_number(rng, (1, 2, 3, 6))
        assert parse_number(str(x)) == x


def test_normalization_collapses_square_factors():
    assert sqrt(8) == rational(2) * sqrt(2)
    assert sqrt(12) == rational(2) * sqrt(3)
    assert SqrtBasisNumber({4: Fraction(1)}) == rational(2)


def test_rational_values_hash_as_int_and_fraction():
    for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        x = rational(q)
        assert x == q and hash(x) == hash(q)
        assert len({x, q}) == 1
        assert {q: "q"}[x] == "q" and {x: "x"}[q] == "x"
    assert {rational(1), 1, sqrt(4) / 2, Fraction(2, 2)} == {1}
    assert len({sqrt(2), sqrt(2) + 0, rational(2)}) == 2


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rational(1) / rational(0)
    with pytest.raises(ZeroDivisionError):
        (sqrt(2) + sqrt(3)) / rational(0)


@pytest.mark.parametrize("other", [0.5, None, "a"])
def test_foreign_operands_raise_type_error(other):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(other, sqrt(2))
        with pytest.raises(TypeError):
            op(sqrt(2), other)
    # A comparison names the operator written, not a subtraction.
    for op, symbol in ((operator.lt, "<"), (operator.le, "<="), (operator.gt, ">"), (operator.ge, ">=")):
        with pytest.raises(TypeError, match=f"^'{symbol}' not supported between instances"):
            op(other, sqrt(2))
        with pytest.raises(TypeError, match=f"^'{symbol}' not supported between instances"):
            op(sqrt(2), other)
    # Equality is defined for every operand: a foreign one is never equal.
    for x in (sqrt(2), rational(0)):
        assert (x == other, other == x, x != other, other != x) == (False, False, True, True)


@pytest.mark.parametrize("q", [0, 3, -7, Fraction(1, 2), Fraction(-7, 3)])
def test_int_and_fraction_operands_embed_as_rational(q):
    x = sqrt(2) + rational(Fraction(1, 3))
    pairs = [
        (x + q, x + rational(q)), (q + x, rational(q) + x),
        (x - q, x - rational(q)), (q - x, rational(q) - x),
        (x * q, x * rational(q)), (q * x, rational(q) * x), (q / x, rational(q) / x),
    ]
    if q:
        pairs.append((x / q, x / rational(q)))
    for got, want in pairs:
        assert type(got) is SqrtBasisNumber and got == want
    assert rational(q) == q and q == rational(q) and not rational(q) != q
    assert x != q and q != x and (x > q) == (x > rational(q)) and (q < x) == (rational(q) < x)


# A reference on {square-free key: Fraction} dicts, independent of the
# integer form: sums and products with zero coefficients dropped, and the
# printed form of each Fraction coefficient.


def _ref_add(p, q):
    out = dict(p)
    for b, c in q.items():
        out[b] = out.get(b, 0) + c
    return {b: c for b, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            g = math.gcd(a, b)
            out[(a // g) * (b // g)] = out.get((a // g) * (b // g), 0) + c * d * g
    return {b: c for b, c in out.items() if c}


def _ref_str(p):
    parts = []
    for b in sorted(p):
        term = str(abs(p[b])) if b == 1 else f"{abs(p[b])}*sqrt({b})"
        sign = ("" if p[b] > 0 else "-") if not parts else ("+ " if p[b] > 0 else "- ")
        parts.append(sign + term)
    return " ".join(parts) or "0"


@pytest.mark.parametrize("bases", [(1, 2, 3, 6), (1, 5), (2, 3, 5, 6, 10, 15, 30)])
def test_arithmetic_matches_fraction_dict_reference(bases):
    rng = random.Random(len(bases))
    for _ in range(300):
        p, q = _random_coords(rng, bases), _random_coords(rng, bases)
        x, y = SqrtBasisNumber(p), SqrtBasisNumber(q)
        p, q = _ref_add(p, {}), _ref_add(q, {})  # zero coefficients dropped
        assert repr(x) == f"SqrtBasisNumber({p!r})" and y.coords == q
        minus_q = {b: -c for b, c in q.items()}
        for value, ref in ((x + y, _ref_add(p, q)), (x - y, _ref_add(p, minus_q)),
                           (x * y, _ref_mul(p, q)), (-x, {b: -c for b, c in p.items()})):
            assert repr(value) == f"SqrtBasisNumber({ref!r})"
            assert str(value) == _ref_str(ref)
        if q:
            assert _ref_mul((x / y).coords, q) == p


def test_equal_values_share_one_form():
    rng = random.Random(29)
    for _ in range(300):
        x, y = _random_number(rng, (1, 2, 3, 6)), _random_number(rng, (1, 2, 3, 6))
        pairs = [(x * y, y * x), ((x + y) - y, x), (x * 6 / 6, x), (x + y, y + x),
                 ((x + y) * (x - y), x * x - y * y), (SqrtBasisNumber(x.coords), x)]
        if y:
            pairs.append(((x / y) * y, x))
        for a, b in pairs:
            assert a == b and (a._den, a._ints, hash(a)) == (b._den, b._ints, hash(b))
            assert a._den > 0 and 0 not in a._ints.values()
            assert math.gcd(a._den, *a._ints.values()) == 1
