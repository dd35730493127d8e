import inspect
import itertools
import math
import random
import time
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from operator import sub

import pytest

from sturmian_erasures import (
    BilliardConfig,
    BoundedOutputError,
    WSEVerdict,
    apply,
    apply_stream,
    balance_order,
    billiard_word,
    complexity,
    erase,
    fibonacci_stream,
    fixed_point_stream,
    literal_stream,
    mechanical_stream,
    parse_morphism,
    parse_number,
    psi,
    rational,
    sqrt,
    sturmian_verdict,
    wse_verdict,
)
import sturmian_erasures.billiard as billiard_module
import sturmian_erasures.exactnum as exactnum
import sturmian_erasures.words as words_module
from sturmian_erasures.morphisms import ID2, PHI, Morphism, compose

from conftest import batches_alone, fib_prefix, fibonacci_numbers, sort_sizes

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
    for letter in ("3", "", "01"):
        with pytest.raises(ValueError, match=f"^letter {letter!r} outside alphabet 012$"):
            erase("0101", letter)
    for w, bad in (("0a1", "'a'"), ("a", "'a'"), ("01 2", "' '"), ("0123", "'3'")):
        with pytest.raises(ValueError, match=f"^letter {bad} outside alphabet 012$"):
            erase(w, "1")


def test_fibonacci_numbers():
    assert fibonacci_numbers(8) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci_numbers(0) == [] and fibonacci_numbers(1) == [0]
    for count in (-1, -2):
        with pytest.raises(ValueError, match="count must be >= 0"):
            fibonacci_numbers(count)
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
    with pytest.raises(ValueError, match="letter '2' outside domain '01'"):
        fixed_point_stream(parse_morphism("0=02,1=1"), "0")


def test_fixed_point_stream_needs_an_image_longer_than_the_seed():
    # f(01) = 01 begins with the seed but never grows past it.
    with pytest.raises(ValueError, match="not prolongable on '01'"):
        fixed_point_stream(ID2, "01")
    assert fixed_point_stream(parse_morphism("0=01,1=10"), "01").prefix(8) == "01101001"
    # Every accepted seed yields as many letters as asked, equal to the
    # iterated images of the seed.
    images = ["".join(w) for n in range(4) for w in itertools.product("01", repeat=n)]
    for im0, im1 in itertools.product(images, repeat=2):
        f = Morphism({"0": im0, "1": im1})
        for seed in ("0", "1", "01"):
            try:
                stream = fixed_point_stream(f, seed)
            except ValueError:
                continue
            w = seed
            while len(w) < 30:
                w = apply(f, w)
            assert stream.prefix(30) == w[:30]


def test_fixed_point_stream_applies_f_to_each_letter_once(monkeypatch):
    # x = f(seed) f(p) f^2(p) ... with p = f(seed)[len(seed):]: on a slowly
    # growing morphism, re-applying f to the whole word would be quadratic.
    passed = []

    def counting_apply(f, w):
        passed.append(len(w))
        return apply(f, w)

    monkeypatch.setattr(words_module, "apply", counting_apply)
    length = 20_000
    word = fixed_point_stream(parse_morphism("0=01,1=1"), "0").prefix(length)
    assert word == "0" + "1" * (length - 1)
    assert sum(passed) <= 2 * length


def test_fixed_point_stream_builds_no_more_than_requested(monkeypatch):
    # On 0=01,1=1^1000 the chunks grow a thousandfold: the chunk after a
    # million ones would be 10^9 letters, far past a 2,000,000-letter request.
    built = []

    def counting_apply(f, w):
        image = apply(f, w)
        built.append(len(image))
        return image

    monkeypatch.setattr(words_module, "apply", counting_apply)
    f = parse_morphism("0=01,1=" + "1" * 1000)
    for length in (1, 999, 1003, 2_000_000):
        built.clear()
        assert fixed_point_stream(f, "0").prefix(length) == "0" + "1" * (length - 1)
        assert sum(built) <= 2 * length + 1000


def test_apply_stream_builds_no_more_than_requested(monkeypatch):
    # Images of 1000 letters: pulling a whole request's worth of input
    # letters would build a thousand times the request.
    f = parse_morphism("0=" + "0" * 1000 + ",1=" + "1" * 1000)
    built = []

    def counting_apply(g, w):
        image = apply(g, w)
        if g is f:  # not the Fibonacci source's own images
            built.append(len(image))
        return image

    monkeypatch.setattr(words_module, "apply", counting_apply)
    reference = "".join(a * 1000 for a in fib_prefix(300))
    for length in (1, 999, 10_000, 200_000):
        built.clear()
        assert apply_stream(f, fibonacci_stream()).prefix(length) == reference[:length]
        assert sum(built) < length + 1000
    built.clear()
    stream = apply_stream(f, fibonacci_stream())
    for length in range(64, 20_000, 64):
        assert stream.prefix(length) == reference[:length]
    assert sum(built) < 20_000 + 1000


def test_fixed_point_stream_matches_iterated_images():
    rng = random.Random(11)
    for _ in range(200):
        images = {a: "".join(rng.choice("012") for _ in range(rng.randrange(1, 4))) for a in "012"}
        images["0"] = "0" + "".join(rng.choice("012") for _ in range(rng.randrange(1, 4)))
        f = Morphism(images)
        stream = fixed_point_stream(f, "0")
        length = rng.randrange(1, 300)
        w = "0"
        while len(w) < length:
            w = apply(f, w)
        # Two requests, so a later pump resumes where an earlier one stopped.
        short = rng.randrange(length + 1)
        assert stream.prefix(short) == w[:short]
        assert stream.prefix(length) == w[:length]


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


def _floor_word(alpha, rho, length):
    """s(n) = floor((n+1)alpha + rho) - floor(n*alpha + rho), one exact floor
    per letter: the reference for mechanical_stream."""
    floors = [(alpha * n + rho).floor() for n in range(length + 1)]
    return "".join(str(b - a) for a, b in zip(floors, floors[1:]))


def _mechanical_corpus(seed, count):
    """Seeded (alpha, rho): rational p/q with q <= 40 and quadratic
    (sqrt(d) - a)/q, from rho in 0, alpha, 1 - alpha, u/q and -k*alpha mod 1.
    rho = 0, 1 - alpha and -k*alpha mod 1 make n*alpha + rho an exact
    integer at n = 0, 1 and k: a tie even for an irrational slope."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.randrange(2):
            q = rng.randint(2, 40)
            alpha = rational(rng.randint(1, q - 1)) / q
        else:
            d, q = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 19]), rng.randint(1, 5)
            root = math.isqrt(d)
            alpha = (sqrt(d) - rng.randint(root - q + 1, root)) / q
        q = rng.randint(1, 40)
        shifted = alpha * -rng.randint(1, 30)
        yield alpha, rng.choice([
            rational(0), alpha, 1 - alpha, rational(rng.randrange(q)) / q,
            shifted - shifted.floor(),
        ])


@pytest.mark.parametrize("rho", ["8-5*sqrt(2)", "sqrt(2)/2", "0"])
def test_mechanical_matches_exact_floors(rho):
    # With rho = 8 - 5*sqrt(2), 5*alpha + rho is exactly the integer 3.
    alpha, rho = parse_number("sqrt(2)-1"), parse_number(rho)
    assert mechanical_stream(alpha, rho).prefix(300) == _floor_word(alpha, rho, 300)


@pytest.mark.parametrize("seed", range(4))
def test_mechanical_matches_exact_floors_on_a_seeded_corpus(seed):
    # Two reads, so a later pump resumes where an earlier one stopped.
    rng = random.Random(seed)
    for alpha, rho in _mechanical_corpus(seed, 100):
        stream, expected = mechanical_stream(alpha, rho), _floor_word(alpha, rho, 400)
        short = rng.randrange(400)
        assert stream.prefix(short) == expected[:short], (alpha, rho)
        assert stream.prefix(400) == expected, (alpha, rho)


def test_mechanical_tiny_slope_takes_no_exact_floor_per_letter(monkeypatch):
    # alpha is about 2e-28, and its 64-bit enclosure has a negative lower
    # end, so deciding each letter by enclosing n*alpha took an exact floor.
    alpha = parse_number("sqrt(2)-1414213562373095048801688724/1000000000000000000000000000")
    expected = _floor_word(alpha, rational(0), 20000)
    floors = []
    floor_of = exactnum._floor_of
    monkeypatch.setattr(exactnum, "_floor_of", lambda *a: floors.append(a) or floor_of(*a))
    start = time.perf_counter()
    assert mechanical_stream(alpha, rational(0)).prefix(20000) == expected
    assert time.perf_counter() - start < 1
    assert len(floors) < 100


TINY = "sqrt(2)-1414213562373095048801688724/1000000000000000000000000000"


def _characteristic_corpus(seed, count):
    """Irrational slopes for rho = 0: two quartic ones, 1/sqrt(999999999999)
    (a_1 about 10**6), the tiny slope (a_1 about 7*10**27), then count seeded
    quadratic ones (sqrt(d) - a)/q."""
    rng = random.Random(seed)
    slopes = ["sqrt(2)+sqrt(3)-3", "sqrt(6)-sqrt(5)", "1/sqrt(999999999999)", TINY]
    for _ in range(count):
        d, q = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 19, 21, 31, 43, 94, 1001]), rng.randint(1, 7)
        root = math.isqrt(d)
        slopes.append(f"(sqrt({d})-{rng.randint(root - q + 1, root)})/{q}")
    return list(map(parse_number, slopes))


@pytest.mark.parametrize("seed", range(2))
def test_characteristic_words_match_exact_floors(seed):
    # The standard-word path against one exact floor per letter, read in
    # chunks of 1, 7, 64 and 300 letters, so that reads start and end inside
    # a unit and inside a run of its copies.
    sizes = itertools.cycle((1, 7, 64, 300))
    for alpha in _characteristic_corpus(seed, 16):
        stream, word = mechanical_stream(alpha, rational(0)), ""
        while len(word) < 1500:
            word = stream.prefix(min(1500, len(word) + next(sizes)))
        assert word == _floor_word(alpha, rational(0), 1500), alpha


def _continued_fraction(x, count):
    """a_1..a_count of x = [0; a_1, a_2, ...] by exact floors and the exact
    1/(x - a)."""
    quotients = []
    for _ in range(count + 1):
        quotients.append(x.floor())
        x = 1 / (x - quotients[-1])
    return quotients[1:]


def test_partial_quotients_match_exact_continued_fractions(monkeypatch):
    ks = []
    enclose = billiard_module._enclose
    monkeypatch.setattr(billiard_module, "_enclose", lambda ints, k: ks.append(k) or enclose(ints, k))
    for alpha in _characteristic_corpus(31, 16):
        quotients = list(islice(billiard_module._quotients(alpha), 40))
        assert quotients == _continued_fraction(alpha, 40), alpha
    # The tiny slope's 64-bit enclosure does not give a_1: the precision
    # doubles before the first quotient.
    ks.clear()
    assert next(billiard_module._quotients(parse_number(TINY))) > 10**27
    assert ks[0] == 64 and len(ks) > 1


def test_characteristic_word_of_a_tiny_slope_reads_in_bounded_pieces():
    # s_1 = 0^(a_1 - 1) 1 with a_1 about 7*10**27 is only ever read in part:
    # no pump call returns more than it was asked for and the letters before.
    stream = mechanical_stream(parse_number(TINY), rational(0))
    pump, produced = stream._pump, [0]

    def bounded(need):
        chunk = pump(need)
        assert len(chunk) <= need + produced[0]
        produced[0] += len(chunk)
        return chunk

    stream._pump = bounded
    start, word = time.perf_counter(), ""
    while len(word) < 20000:
        word = stream.prefix(len(word) + 64)
    assert time.perf_counter() - start < 1
    assert word == "0" * 20032


def test_rational_slopes_from_zero_stay_on_the_billiard(monkeypatch):
    # A rational slope's enclosure is exact: its quotients are never read.
    monkeypatch.setattr(billiard_module, "_quotients", None)
    alpha = parse_number("5/13")
    stream = mechanical_stream(alpha, rational(0))
    assert stream.prefix(100) == _floor_word(alpha, rational(0), 100)
    assert isinstance(_letters_of(stream), billiard_module._Ring)
    assert _letters_of(stream).period == 13


def _rational_mechanical_corpus(seed, count):
    """Seeded (p, q, u): slope p/q in lowest terms, q <= 40, from rho = u/q,
    half of them from rho = 0."""
    rng = random.Random(seed)
    for pos in range(count):
        q = rng.randint(2, 40)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        yield p, q, rng.randrange(1, q) if pos % 2 else 0


# Rational slopes from irrational starts, where rho is given as text, take
# one sort too; a period over the batch cap stays on _Crossings, and 1/4096
# is the cap.
RATIONAL_MECHANICAL = list(_rational_mechanical_corpus(2302, 16)) + [
    (5, 13, "sqrt(2)/2"), (3, 8, "sqrt(3)/3"), (1, 2, "sqrt(5)-2"), (11, 17, "1-sqrt(2)/2"),
    (1, 4096, 0), (2049, 4097, 5),
]


def _letters_of(stream):
    """The _Ring (one integer sort) or _Crossings whose letters a mechanical
    stream's pump reads."""
    return inspect.getclosurevars(stream._pump).nonlocals["letters"].__self__


@pytest.mark.parametrize("p, q, u", RATIONAL_MECHANICAL)
def test_rational_mechanical_words_repeat_their_period(p, q, u, monkeypatch):
    # Reads of 1, 63, 300 and 5000 letters end anywhere in a period, and the
    # ordinary path, the batches alone, gives the same letters.
    alpha, rho = rational(p) / q, parse_number(u) if isinstance(u, str) else rational(u) / q
    expected = _floor_word(alpha, rho, 5364)
    stream = mechanical_stream(alpha, rho)
    assert isinstance(_letters_of(stream), billiard_module._Ring if q <= 4096 else billiard_module._Crossings)
    assert q > 4096 or _letters_of(stream).period == q
    word = ""
    with monkeypatch.context() as patch:
        sizes = sort_sizes(patch)
        for size in (1, 63, 300, 5000):
            word = stream.prefix(len(word) + size)
    # The period was sorted at the start: no read sorts.
    assert q > 4096 or sizes == []
    monkeypatch.setattr(billiard_module, "_coding", batches_alone)
    ordinary = mechanical_stream(alpha, rho)
    assert word == expected == ordinary.prefix(5364)
    assert isinstance(_letters_of(ordinary), billiard_module._Crossings)


def test_rational_mechanical_orders_one_batch(monkeypatch):
    # 5/13 has 13 letters a period: one sort orders it when the stream is
    # built, after _lines sorts the one key of its rows, and a million
    # letters later no other sort has run.
    sizes = sort_sizes(monkeypatch)
    stream = mechanical_stream(parse_number("5/13"), parse_number("1/13"))
    assert sizes == [1, 13]
    word = stream.prefix(10**6)
    assert sizes == [1, 13]
    period = _floor_word(rational(5) / 13, rational(1) / 13, 13)
    assert word == (period * (10**6 // 13 + 1))[: 10**6]
    assert len(_letters_of(stream).ring) <= 2 * 13 + 4096


def _start_rule_corpus(seed, count):
    """Seeded slopes p/q in lowest terms, q <= 64, then 1/4096, the batch cap,
    and 2049/4097, past it."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(2, 64)
        yield rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]), q
    yield 1, 4096
    yield 2049, 4097


def _starts(q, rng):
    """(rho, u): starts 0, u/q, sqrt(a)/b and 1 - sqrt(a)/b for a seeded
    non-square a < b**2, each with u = floor(q*rho) by an integer square
    root: q*sqrt(a)/b is irrational, so floor(q - q*sqrt(a)/b) is q - 1 less
    floor(q*sqrt(a)/b), and floor(floor(x)/b) = floor(x/b)."""
    b = rng.randint(2, 9)
    a = rng.choice([a for a in range(2, b * b) if math.isqrt(a) ** 2 != a])
    below = math.isqrt(q * q * a) // b
    u = rng.randrange(q)
    return [(rational(0), 0), (rational(u) / q, u), (parse_number(f"sqrt({a})/{b}"), below),
            (parse_number(f"1-sqrt({a})/{b}"), q - 1 - below)]


START_RULE = list(_start_rule_corpus(3401, 24))


@pytest.mark.parametrize("p, q", START_RULE, ids=[f"{p}/{q}" for p, q in START_RULE])
def test_rational_slopes_depend_on_rho_only_through_floor_q_rho(p, q):
    # s(n) = floor(((n+1)p + u)/q) - floor((np + u)/q), u = floor(q*rho),
    # read in chunks that end anywhere in a period, from rational rows: a
    # period of q letters sorted once, or batches of zero width past the cap.
    rng = random.Random(q * 4096 + p)
    length = max(2 * q + 301, 5364)
    for rho, u in _starts(q, rng):
        expected = "".join(str(((n + 1) * p + u) // q - (n * p + u) // q) for n in range(length))
        stream, word = mechanical_stream(rational(p) / q, rho), ""
        letters = _letters_of(stream)
        if q <= 4096:
            assert isinstance(letters, billiard_module._Ring) and letters.period == q
        else:
            assert isinstance(letters, billiard_module._Crossings) and letters.width() == 0
        for size in itertools.cycle((1, 63, 300, 5000)):
            if len(word) >= length:
                break
            word = stream.prefix(min(length, len(word) + size))
        assert word == expected, (p, q, rho)


@pytest.mark.parametrize("alpha, rho", [
    ("(3-sqrt(5))/2", "0"), (TINY, "0"),  # characteristic words
    ("5/13", "0"), ("5/13", "1/13"), ("5/13", "sqrt(2)/2"), ("2049/4097", "0"),  # rational slopes
    ("sqrt(2)-1", "1/3"), ("(sqrt(3)-1)/2", "sqrt(2)/2"),  # irrational slopes, rho != 0
])
def test_mechanical_streams_start_empty(alpha, rho):
    # No path writes a letter into the buffer: each comes from the pump.
    alpha, rho = parse_number(alpha), parse_number(rho)
    stream = mechanical_stream(alpha, rho)
    assert stream._buf == ""
    assert stream.prefix(300) == _floor_word(alpha, rho, 300)


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
    # Each end of the range, and values within 3e-28 of one.
    near = parse_number("sqrt(2)-1414213562373095048801688724/1000000000000000000000000000")
    inside = {near, 1 - near}
    for x in (rational(0), rational(1), near, -near, 1 - near, 1 + near):
        if x in inside:
            assert mechanical_stream(x, rational(0)).prefix(20) == _floor_word(x, 0, 20)
        else:
            with pytest.raises(ValueError, match="alpha must satisfy 0 < alpha < 1"):
                mechanical_stream(x, rational(0))
        if x in inside or x == 0:
            assert mechanical_stream(near, x).prefix(20) == _floor_word(near, x, 20)
        else:
            with pytest.raises(ValueError, match="rho must satisfy 0 <= rho < 1"):
                mechanical_stream(near, x)


def test_apply_stream():
    s = apply_stream(ID2, literal_stream("0101"))
    assert s.source == "morphic-image"
    assert s.prefix(4) == "0101"
    g = parse_morphism("0=02,1=10,2=")
    image = apply_stream(g, fibonacci_stream()).prefix(40)
    assert image == apply(g, fib_prefix(40))[:40]
    with pytest.raises(BoundedOutputError):
        apply_stream(parse_morphism("0=,1="), fibonacci_stream()).prefix(1)


def test_apply_stream_keeps_the_image_of_a_finite_source():
    s = apply_stream(parse_morphism("0=0,1=1"), literal_stream("010"))
    with pytest.raises(BoundedOutputError, match="morphic-image stream ended at 3 letters"):
        s.prefix(4)
    assert s.prefix(3) == "010"
    s = apply_stream(parse_morphism("0=00,1=11"), literal_stream("0101"))
    assert s.prefix(8) == "00110011"
    with pytest.raises(BoundedOutputError, match="morphic-image stream ended at 8 letters"):
        s.prefix(9)
    assert s.prefix(8) == "00110011"


def test_apply_stream_keeps_letters_pumped_before_the_pull_bound():
    s = apply_stream(parse_morphism("0=,1=1,2=2"), literal_stream("1" + "0" * 200 + "2" * 40))
    with pytest.raises(BoundedOutputError, match="factor 64"):
        s.prefix(2)
    assert s.prefix(20) == "1" + "2" * 19


def test_apply_stream_reads_past_an_erased_chunk():
    f = parse_morphism("0=,1=1")
    reference = apply(f, fib_prefix(1000))[:300]
    s = apply_stream(f, fibonacci_stream())
    assert "".join(s.prefix(n)[-1] for n in range(1, 301)) == reference


def test_complexity_examples():
    p = complexity("0000", 2)
    assert p.counts == {1: 1, 2: 1}
    q = complexity(fib_prefix(200), 3)
    assert (q.counts[1], q.counts[2], q.counts[3]) == (2, 3, 4)
    assert complexity("00110", 2).counts[2] == 4
    assert q.counts == {1: 2, 2: 3, 3: 4}


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


def _naive_complexity(w, max_n):
    """P(n) from one set of length-n slices per n."""
    return {n: len({w[i : i + n] for i in range(len(w) - n + 1)}) for n in range(1, max_n + 1)}


def _naive_imbalance(w, max_n):
    """Largest spread of one letter's count over n-windows, from prefix sums."""
    cum = []
    for a in sorted(set(w)):
        acc = [0]
        for c in w:
            acc.append(acc[-1] + (c == a))
        cum.append(acc)
    out = {}
    for n in range(1, max_n + 1):
        worst = 0
        for acc in cum:
            vals = [acc[i + n] - acc[i] for i in range(len(w) - n + 1)]
            worst = max(worst, max(vals) - min(vals))
        out[n] = worst
    return out


def _gap_scan_imbalance(w, max_n):
    """imbalance[n] from the gaps between positions: an n-window holds at
    most as many of a set of positions as there are k whose shortest window
    holding k of them fits in n letters, and at least as many as there are k
    whose longest window holding only k of them is shorter than n.  Each set
    is one letter's positions, or its complement's when that is sparser."""
    position_sets = []
    for a in sorted(set(w)):
        sparser = a.__ne__ if 2 * w.count(a) > len(w) else a.__eq__
        p = list(compress(range(len(w)), map(sparser, w)))
        if p and p not in position_sets:
            position_sets.append(p)
    spans = []
    for p in position_sets:
        shortest = [1]  # shortest[k-1]: shortest window holding k positions
        while len(shortest) < len(p):
            g = min(map(sub, islice(p, len(shortest), None), p)) + 1
            if g > max_n:
                break
            shortest.append(g)
        q = [-1, *p, len(w)]
        longest = []  # longest[k]: longest window holding only k positions
        while True:
            big = max(map(sub, islice(q, len(longest) + 1, None), q)) - 1
            if big >= max_n:
                break
            longest.append(big)
        spans.append((shortest, longest))
    return {
        n: max((bisect_right(sh, n) - bisect_left(lo, n) for sh, lo in spans), default=0)
        for n in range(1, max_n + 1)
    }


def _complexity_first_verdict(e, n_cap):
    return sturmian_verdict(complexity(e, n_cap), balance_order(e, n_cap))


def _complexity_first_wse_verdict(prefix, max_n, erasure_verdict=_complexity_first_verdict):
    """wse_verdict with a complexity pass on every erasure."""
    per = {}
    for i in "012":
        e = erase(prefix, i)
        per[i] = erasure_verdict(e, min(max_n, len(e)))
    refuted = [f"erasure {i}: {v.witness}" for i, v in per.items() if not v.consistent]
    return WSEVerdict(consistent=not refuted, per_erasure=per, witness=(refuted or [None])[0])


def _witness_kinds(verdicts):
    return {v.witness.split(": ")[1].split("(")[0] for v in verdicts if v.witness}


def _assert_matches_naive(w):
    """complexity and balance_order equal the references for every max_n."""
    counts, imbalance = _naive_complexity(w, len(w)), _naive_imbalance(w, len(w))
    for max_n in range(1, len(w) + 1):
        assert complexity(w, max_n).counts == {n: counts[n] for n in range(1, max_n + 1)}
        b = balance_order(w, max_n)
        assert b.imbalance == {n: imbalance[n] for n in range(1, max_n + 1)}
        assert b.order == max(b.imbalance.values())


@pytest.mark.parametrize("size", [1, 2, 3])
def test_analyzers_match_naive_on_random_words(size):
    rng = random.Random(20 + size)
    for length in range(1, 81):
        letters = rng.sample("012", size)
        _assert_matches_naive("".join(rng.choice(letters) for _ in range(length)))


def test_analyzers_match_naive_with_a_dense_letter():
    # One letter above density 1/2, so balance_order takes the positions of
    # the other letters.
    rng = random.Random(31)
    for length in range(1, 81):
        dense = rng.choice("012")
        others = [a for a in "012" if a != dense][: rng.randint(1, 2)]
        weight = rng.uniform(0.55, 0.95)
        _assert_matches_naive(
            "".join(dense if rng.random() < weight else rng.choice(others) for _ in range(length))
        )


def test_analyzers_match_naive_on_long_analysis_words():
    member = parse_morphism("0=02,1=10,2=")
    images = [PHI, member, psi(3).psi, compose(parse_morphism("0=0,1=1,2=012"), member)]
    F = fib_prefix(3000)
    for f in images:
        w = apply(f, F)[:3000]
        assert complexity(w, 64).counts == _naive_complexity(w, 64)
        assert balance_order(w, 64).imbalance == _naive_imbalance(w, 64)
        for max_n in (8, 64):
            assert wse_verdict(w, max_n) == _complexity_first_wse_verdict(w, max_n)


def test_analyzers_match_naive_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="012", min_size=1, max_size=600), st.data())
    def check(w, data):
        max_n = data.draw(st.integers(1, len(w)))
        assert balance_order(w, max_n).imbalance == _gap_scan_imbalance(w, max_n)
        if len(w) <= 120:
            assert complexity(w, max_n).counts == _naive_complexity(w, max_n)
            assert balance_order(w, max_n).imbalance == _naive_imbalance(w, max_n)

    check()


def test_balance_order_with_eight_or_more_counter_planes():
    # max_n >= 128 needs 8 bit planes, max_n >= 256 needs 9; max_n = len(w)
    # leaves one valid start.  Some words have a letter of density > 1/2.
    rng = random.Random(16)
    for trial in range(16):
        length = rng.randint(256, 420)
        letters = rng.sample("012", rng.randint(2, 3))
        weights = [rng.uniform(0.05, 1) for _ in letters]
        if trial % 2:
            weights[0] = 3 * sum(weights)
        w = "".join(rng.choices(letters, weights, k=length))
        naive = _naive_imbalance(w, length)
        for max_n in (128, 255, 256, length):
            got = balance_order(w, max_n)
            assert got.imbalance == _gap_scan_imbalance(w, max_n)
            assert got.imbalance == {n: naive[n] for n in range(1, max_n + 1)}
            assert got.order == max(got.imbalance.values())
    # Runs of exactly 128 and 256 letters fill the top plane of 8 and 9, and
    # one-letter words have spread 0 at every n.
    for run in (128, 256):
        for w in ("0" * run + "1" + "0" * 200, "1" + "2" * run + "0" + "2" * run, "1" * run):
            for max_n in (run - 1, run, len(w)):
                assert balance_order(w, max_n).imbalance == _gap_scan_imbalance(w, max_n)


def test_balance_order_on_a_billiard_prefix():
    config = BilliardConfig(
        d=(rational(1), sqrt(2), sqrt(3)),
        rho=(parse_number("1/3"), parse_number("1/5"), parse_number("1/7")),
    )
    w = billiard_word(config).prefix(20_000)
    for word in (w, *(erase(w, i) for i in "012")):
        assert balance_order(word, 64).imbalance == _gap_scan_imbalance(word, 64)


def test_balance_order_reads_past_the_int_digit_limit():
    # int(..., 2) reads a power-of-two base, which the int/str digit limit
    # (4,300 digits by default on interpreters that have one) does not cover.
    w = fib_prefix(1_000_000)
    assert balance_order(w, 8).imbalance == dict.fromkeys(range(1, 9), 1)


def test_balance_examples():
    assert balance_order(fib_prefix(10_000), 100).order == 1
    g = parse_morphism("0=02,1=10,2=")
    assert balance_order(apply(g, fib_prefix(5000)), 50).order == 2
    b = balance_order("0011", 2)
    assert b.order == 2 and b.imbalance == {1: 1, 2: 2}
    assert balance_order("01" * 50).max_n == 10


def test_sturmian_verdict():
    refuted = sturmian_verdict(complexity("00110", 2), balance_order("00110", 2))
    assert not refuted.consistent
    assert refuted.witness == "P(2)=4 > 3"
    assert refuted.coverage is None

    unbalanced = sturmian_verdict(complexity("0011", 2), balance_order("0011", 2))
    assert not unbalanced.consistent
    assert unbalanced.witness == "imbalance(2)=2 >= 2"

    w = fib_prefix(10_000)
    ok = sturmian_verdict(complexity(w, 50), balance_order(w, 50))
    assert ok.consistent and ok.coverage == 50
    assert ok.witness is None

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
    assert [v.consistent for v in bad.per_erasure.values()] == [True, True, False]

    periodic = wse_verdict("012" * 200, 20)
    assert periodic.consistent

    with pytest.raises(ValueError):
        wse_verdict("00", 1)


def test_wse_verdict_equals_complexity_first_on_short_words():
    # Every ternary word of length <= 8 with two letters or more (a one-letter
    # word has an empty erasure), at every max_n.
    erasure_verdicts = {}

    def cached(e, n_cap):
        if (e, n_cap) not in erasure_verdicts:
            erasure_verdicts[e, n_cap] = _complexity_first_verdict(e, n_cap)
        return erasure_verdicts[e, n_cap]

    seen = []
    for length in range(2, 9):
        for letters in itertools.product("012", repeat=length):
            w = "".join(letters)
            if len(set(w)) < 2:
                continue
            for max_n in range(1, length + 1):
                expected = _complexity_first_wse_verdict(w, max_n, cached)
                assert wse_verdict(w, max_n) == expected
                seen.append(expected)
    assert _witness_kinds(seen) == {"P", "imbalance"}


def test_wse_verdict_equals_complexity_first_on_refuted_words():
    # Seeded images of the Fibonacci word under ternary morphisms, with one
    # letter changed or a block of one letter in front: refutations by P(n)
    # and by imbalance alone.
    rng = random.Random(1601)
    F = fib_prefix(2000)
    seen = []
    for trial in range(80):
        f = Morphism({a: "".join(rng.choices("012", k=rng.randint(1, 3))) for a in "01"})
        w = apply(f, F)[: rng.randint(200, 1500)]
        if trial % 2:
            w = rng.choice("012") * rng.randint(1, 6) + w
        else:
            i = rng.randrange(len(w))
            w = w[:i] + rng.choice("012") + w[i + 1 :]
        if len(set(w)) < 2:
            continue
        max_n = rng.choice([4, 16, 64])
        expected = _complexity_first_wse_verdict(w, max_n)
        assert wse_verdict(w, max_n) == expected
        seen.append(expected)
    assert _witness_kinds(seen) == {"P", "imbalance"}


def test_wse_verdict_runs_complexity_only_on_unbalanced_erasures(monkeypatch):
    calls = []
    counted = words_module.complexity
    monkeypatch.setattr(
        words_module, "complexity", lambda e, n: calls.append(e) or counted(e, n)
    )
    g = parse_morphism("0=02,1=10,2=")
    assert wse_verdict(apply(g, fib_prefix(5000)), 30).consistent
    assert calls == []
    fh = apply(parse_morphism("0=0012,1=10,2="), fib_prefix(5000))
    assert wse_verdict(fh, 30).witness == "erasure 2: P(2)=4 > 3"
    assert calls == [erase(fh, i) for i in "012" if balance_order(erase(fh, i), 30).order >= 2]
