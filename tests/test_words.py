import random

import pytest

from sturmian_erasures import (
    BoundedOutputError,
    apply,
    apply_stream,
    balance_order,
    complexity,
    erase,
    fibonacci_numbers,
    fibonacci_stream,
    fixed_point_stream,
    literal_stream,
    mechanical_stream,
    parse_morphism,
    parse_number,
    period_scan,
    rational,
    sturmian_verdict,
    wse_verdict,
)
from sturmian_erasures.morphisms import ID2, PHI

from conftest import fib_prefix

FIB13 = "0100101001001"


def test_erase_examples():
    assert erase("0210020210", "2") == "0100010"
    assert erase("012001", "2") == "01001"
    assert erase("", "0") == ""
    assert erase("111", "0") == "111"


def test_erase_properties():
    rng = random.Random(3)
    for _ in range(100):
        w = "".join(rng.choice("012") for _ in range(rng.randrange(40)))
        for a in "012":
            out = erase(w, a)
            assert erase(out, a) == out
            assert len(out) == len(w) - w.count(a)
    with pytest.raises(ValueError):
        erase("0101", "3")


def test_fibonacci_numbers():
    assert fibonacci_numbers(8) == [0, 1, 1, 2, 3, 5, 8, 13]
    u = fibonacci_numbers(22)
    for n in range(1, 21):
        assert u[n + 1] * u[n - 1] - u[n] * u[n] == (-1) ** n


def test_fibonacci_stream():
    s = fibonacci_stream()
    assert s.source == "fixed-point"
    assert s.prefix(1) == "0"
    assert s.prefix(13) == FIB13
    long = fibonacci_stream().prefix(233)
    assert long == (PHI**11)("0")
    assert long.startswith(FIB13)


def test_stream_prefix_contract():
    s = fibonacci_stream()
    a = s.prefix(5)
    b = s.prefix(13)
    assert b.startswith(a)
    assert s.prefix(0) == ""
    with pytest.raises(ValueError):
        s.prefix(-1)


def test_literal_stream_bounds():
    s = literal_stream("0102")
    assert s.prefix(4) == "0102"
    with pytest.raises(BoundedOutputError):
        literal_stream("0102").prefix(5)


def test_fixed_point_stream():
    sq = fixed_point_stream(PHI * PHI, "0")
    assert sq.prefix(13) == FIB13
    with pytest.raises(ValueError):
        fixed_point_stream(PHI, "1")
    with pytest.raises(ValueError):
        fixed_point_stream(ID2, "0")
    with pytest.raises(ValueError):
        fixed_point_stream(parse_morphism("0=01,1="), "0")


def test_mechanical_examples():
    half = parse_number("1/2")
    s = mechanical_stream(half, rational(0))
    assert s.source == "mechanical"
    assert s.prefix(8) == "01010101"
    slope = parse_number("(3-sqrt(5))/2")
    assert mechanical_stream(slope, slope).prefix(2000) == fib_prefix(2000)


def _standard_word(partial_quotients, length):
    """0 c_a for a = [0; a1, a2, ...] from the standard-word recurrence
    s_(-1) = 1, s_0 = 0, s_n = s_(n-1)^(d_n) s_(n-2) with d_1 = a1 - 1 and
    d_n = a_n (Lothaire, Algebraic Combinatorics on Words, ch. 2)."""
    prev, cur = "1", "0"
    for n, a in enumerate(partial_quotients, 1):
        prev, cur = cur, cur * (a - 1 if n == 1 else a) + prev
        if len(cur) > length:
            return ("0" + cur)[:length]
    raise AssertionError("too few partial quotients")


@pytest.mark.parametrize(
    "slope, quotients",
    [
        ("sqrt(2)-1", [2] * 40),  # [0; 2, 2, 2, ...]
        ("(sqrt(3)-1)/2", [2, 1] * 40),  # [0; 2, 1, 2, 1, ...]
        ("(3-sqrt(5))/2", [2] + [1] * 60),  # [0; 2, 1, 1, 1, ...]
    ],
)
def test_mechanical_matches_standard_word(slope, quotients):
    w = mechanical_stream(parse_number(slope), rational(0)).prefix(5000)
    assert w == _standard_word(quotients, 5000)


@pytest.mark.parametrize("p, q, u", [(1, 2, 0), (3, 7, 2), (5, 8, 7), (1, 97, 50), (96, 97, 96)])
def test_mechanical_rational_floor_formula(p, q, u):
    w = mechanical_stream(parse_number(f"{p}/{q}"), parse_number(f"{u}/{q}")).prefix(1000)
    assert w == "".join(
        str(((n + 1) * p + u) // q - (n * p + u) // q) for n in range(1000)
    )


@pytest.mark.parametrize("rho", ["8-5*sqrt(2)", "sqrt(2)/2", "0"])
def test_mechanical_matches_exact_floors(rho):
    # With rho = 8 - 5*sqrt(2), 5*alpha + rho is exactly the integer 3, so the
    # enclosure straddles it and the exact floor decides.
    alpha, rho = parse_number("sqrt(2)-1"), parse_number(rho)
    w = mechanical_stream(alpha, rho).prefix(300)
    floors = [(alpha * n + rho).floor() for n in range(301)]
    assert w == "".join(str(b - a) for a, b in zip(floors, floors[1:]))


def test_mechanical_irrational_complexity():
    slope = parse_number("(3-sqrt(5))/2")
    w = mechanical_stream(slope, rational(0)).prefix(2000)
    profile = complexity(w, 20)
    assert all(profile.counts[n] == n + 1 for n in range(1, 21))


def test_mechanical_range_errors():
    with pytest.raises(ValueError):
        mechanical_stream(rational(0), rational(0))
    with pytest.raises(ValueError):
        mechanical_stream(rational(1), rational(0))
    with pytest.raises(ValueError):
        mechanical_stream(parse_number("1/2"), rational(1))
    with pytest.raises(ValueError):
        mechanical_stream(0.5, rational(0))


def test_apply_stream():
    s = apply_stream(ID2, literal_stream("0101"))
    assert s.source == "morphic-image"
    assert s.prefix(4) == "0101"
    g = parse_morphism("0=02,1=10,2=")
    image = apply_stream(g, fibonacci_stream()).prefix(40)
    assert image == apply(g, fib_prefix(40))[:40]
    with pytest.raises(BoundedOutputError):
        apply_stream(parse_morphism("0=,1="), fibonacci_stream()).prefix(1)


def test_complexity_examples():
    p = complexity("0000", 2)
    assert p.counts == {1: 1, 2: 1}
    q = complexity(fib_prefix(200), 3)
    assert (q.counts[1], q.counts[2], q.counts[3]) == (2, 3, 4)
    assert complexity("00110", 2).counts[2] == 4
    assert q.to_json() == {"1": 2, "2": 3, "3": 4}


def test_complexity_defaults_and_errors():
    assert complexity("01" * 50).max_n == 10
    assert complexity(fib_prefix(10_000)).max_n == 64
    with pytest.raises(ValueError):
        complexity("0101", 0)
    with pytest.raises(ValueError):
        complexity("0101", 5)
    with pytest.raises(ValueError):
        complexity("0a01", 2)


def test_complexity_subadditive():
    rng = random.Random(5)
    for _ in range(25):
        w = "".join(rng.choice("01") for _ in range(256))
        p = complexity(w, 12)
        for m in range(1, 6):
            for n in range(1, 6):
                assert p.counts[m + n] <= p.counts[m] * p.counts[n]


def test_balance_examples():
    assert balance_order(fib_prefix(10_000), 100).order == 1
    g = parse_morphism("0=02,1=10,2=")
    assert balance_order(apply(g, fib_prefix(5000)), 50).order == 2
    b = balance_order("0011", 2)
    assert b.order == 2 and b.imbalance == {1: 1, 2: 2}
    assert balance_order("01" * 50).max_n == 10


def test_period_scan():
    assert period_scan("01010101") == 2
    assert period_scan("012" * 100) == 3
    assert period_scan(fib_prefix(1000)) is None
    assert period_scan("0") is None
    assert period_scan("0001010101010101") == 2


def test_sturmian_verdict():
    refuted = sturmian_verdict(complexity("00110", 2), balance_order("00110", 2))
    assert not refuted.consistent
    assert refuted.witness == "P(2)=4 > 3"
    assert refuted.to_json() == {"verdict": "refuted", "witness": "P(2)=4 > 3"}

    unbalanced = sturmian_verdict(complexity("0011", 2), balance_order("0011", 2))
    assert not unbalanced.consistent
    assert unbalanced.witness == "imbalance(2)=2 >= 2"

    w = fib_prefix(10_000)
    ok = sturmian_verdict(complexity(w, 50), balance_order(w, 50))
    assert ok.consistent and ok.coverage == 50
    assert ok.to_json() == {"verdict": "consistent", "coverage": 50}

    periodic = sturmian_verdict(complexity("01" * 250, 20), balance_order("01" * 250, 20))
    assert periodic.consistent

    with pytest.raises(ValueError):
        sturmian_verdict(complexity("012", 1), balance_order("012", 1))
    with pytest.raises(ValueError):
        sturmian_verdict(complexity("0101", 2), balance_order("01010", 2))


def test_wse_verdict():
    g = parse_morphism("0=02,1=10,2=")
    good = wse_verdict(apply(g, fib_prefix(5000)), 30)
    assert good.consistent
    assert set(good.per_erasure) == {"0", "1", "2"}

    fh = parse_morphism("0=0012,1=10,2=")
    bad = wse_verdict(apply(fh, fib_prefix(5000)), 30)
    assert not bad.consistent
    assert bad.witness == "erasure 2: P(2)=4 > 3"
    assert bad.to_json()["verdict"] == "refuted"

    periodic = wse_verdict("012" * 200, 20)
    assert periodic.consistent
    assert period_scan("012" * 200) == 3

    with pytest.raises(ValueError):
        wse_verdict("00", 1)
