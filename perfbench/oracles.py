"""Reference implementations the benchmark checks the library against.

Nothing here imports `sturmian_erasures`: every expected answer comes from
integer or Fraction arithmetic, plain string operations, or a known result,
so a wrong answer from a layer under test cannot also hide in its check.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction

# -- words --------------------------------------------------------------------


def fibonacci_word(length):
    """Prefix of the Fibonacci word, by s_(n+1) = s_n s_(n-1)."""
    prev, cur = "0", "01"
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return cur[:length]


def apply_images(images, word):
    """Morphic image, one letter at a time."""
    out = []
    for letter in word:
        out.append(images[letter])
    return "".join(out)


def parse_spec(text):
    """`0=02,1=10,2=` -> {"0": "02", "1": "10", "2": ""}."""
    images = {}
    for entry in text.split(","):
        letter, image = entry.split("=", 1)
        images[letter] = image
    return images


def format_spec(images):
    return ",".join(f"{a}={images[a]}" for a in sorted(images))


def compose_images(outer, inner):
    """(outer o inner)(a) = outer(inner(a))."""
    return {a: apply_images(outer, w) for a, w in inner.items()}


def erase_letter(word, letter):
    return "".join(c for c in word if c != letter)


# -- mechanical words -----------------------------------------------------------


def quadratic_cf(p, d, q, count):
    """First `count` partial quotients of (p + sqrt(d)) / q, d not a square.

    Integer-only: the pair (p, q) is kept with q dividing d - p*p, and
    floor((p + sqrt(d)) / q) = floor((p + isqrt(d)) / q) for q > 0.
    """
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    s = math.isqrt(d)
    if s * s == d:
        raise ValueError("d must not be a perfect square")
    out = []
    for _ in range(count):
        if q > 0:
            a = (p + s) // q
        else:
            # (p + sqrt(d)) / q = -(p + sqrt(d)) / |q|, irrational: floor = -ceil.
            a = -((p + s) // -q) - 1
        out.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return out


def standard_mechanical(cf, length):
    """The mechanical word s(n) = floor((n+1)a) - floor(na), n >= 0, for
    0 < a = [0; a1, a2, ...] < 1, built without arithmetic on a.

    Lothaire (Algebraic Combinatorics on Words, ch. 2): with d1 = a1 - 1 and
    d_n = a_n, s_(-1) = 1, s_0 = 0, s_n = s_(n-1)^(d_n) s_(n-2) converge to
    the characteristic word c_a, and the mechanical word of intercept 0 is
    0 c_a.
    """
    if cf[0] != 0:
        raise ValueError("slope must lie in (0, 1)")
    quotients = [cf[1] - 1] + list(cf[2:])
    prev, cur = "1", "0"
    for dn in quotients:
        prev, cur = cur, cur * dn + prev
        if len(cur) > length + 2 and dn:
            break
    if len(cur) < length:
        raise ValueError("continued fraction too short for the requested length")
    return ("0" + cur)[:length]


def rational_mechanical(p, q, u, length):
    """s(n) = floor((n+1)p/q + u/q) - floor(np/q + u/q) in integers."""
    return "".join(
        "1" if ((n + 1) * p + u) // q - (n * p + u) // q else "0"
        for n in range(length)
    )


# -- billiard codings -----------------------------------------------------------


def billiard_code(times, length):
    """Coding word from per-coordinate crossing-time generators.

    `times[i]` yields exact, comparable keys of coordinate i's crossing
    times in increasing order (None for a coordinate that never moves);
    equal keys fuse into one block of ascending coordinates.
    """
    gens = {i: iter(g) for i, g in enumerate(times) if g is not None}
    heads = {i: next(g) for i, g in gens.items()}
    out = []
    total = 0
    while total < length:
        least = min(heads.values())
        block = "".join(str(i) for i in sorted(heads) if heads[i] == least)
        out.append(block)
        total += len(block)
        for i in block:
            heads[int(i)] = next(gens[int(i)])
    return "".join(out)[:length]


def _count_from(m):
    while True:
        yield m
        m += 1


def sqrt_times(coeff, radicand, rho=0):
    """Crossing keys of a coordinate with d = coeff*sqrt(radicand) and a
    rational start rho.

    Times t = (m - rho) / d are nonnegative, so t*t = (m - rho)**2 /
    (coeff**2 * radicand) orders them the same way and is rational: no
    square root is needed.
    """
    if coeff == 0:
        return None
    den = Fraction(coeff) ** 2 * radicand
    rho = Fraction(rho)
    first = 0 if rho == 0 else 1
    return ((m - rho) ** 2 / den for m in _count_from(first))


def rational_times(d, rho):
    """Crossing times (m - rho)/d with rational d > 0 and 0 <= rho < 1."""
    if d == 0:
        return None
    d, rho = Fraction(d), Fraction(rho)
    first = 0 if rho == 0 else 1
    return ((m - rho) / d for m in _count_from(first))


def periodic_prefix(period, length):
    return (period * (length // len(period) + 1))[:length]


# -- factor complexity and balance ----------------------------------------------


def _common_prefix_len(a, b):
    n = min(len(a), len(b))
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factor_counts(word, max_n):
    """P(n) for n = 1..max_n from sorted suffixes (not per-n factor sets).

    Sort the start positions by their length-max_n window; equal length-n
    factors are then adjacent, and a window too short to hold n letters
    cannot sit between two equal ones.  So P(n) = (L - n + 1) minus the
    number of adjacent pairs sharing at least n letters.
    """
    L = len(word)
    windows = sorted(word[i : i + max_n] for i in range(L))
    lcps = sorted(_common_prefix_len(a, b) for a, b in zip(windows, windows[1:]))
    return {
        n: (L - n + 1) - (len(lcps) - bisect_left(lcps, n)) for n in range(1, max_n + 1)
    }


def imbalances(word, max_n):
    """imbalance(n) = max over letters of (max - min) count in n-windows."""
    out = {}
    cums = []
    for a in sorted(set(word)):
        acc = [0]
        for c in word:
            acc.append(acc[-1] + (c == a))
        cums.append(acc)
    for n in range(1, max_n + 1):
        worst = 0
        for acc in cums:
            sums = list(map(operator.sub, acc[n:], acc))
            worst = max(worst, max(sums) - min(sums))
        out[n] = worst
    return out


def sturmian_expectation(word, max_n):
    """(consistent, witness, coverage) as the analyzers must report them."""
    counts = factor_counts(word, max_n)
    for n in range(1, max_n + 1):
        if counts[n] > n + 1:
            return False, f"P({n})={counts[n]} > {n + 1}", None
    imb = imbalances(word, max_n)
    for n in range(1, max_n + 1):
        if imb[n] >= 2:
            return False, f"imbalance({n})={imb[n]} >= 2", None
    return True, None, max_n


def wse_expectation(word, max_n):
    """Per-erasure expectations and the overall witness for a ternary word."""
    per = {}
    witness = None
    for letter in "012":
        erased = erase_letter(word, letter)
        per[letter] = sturmian_expectation(erased, min(max_n, len(erased)))
        if not per[letter][0] and witness is None:
            witness = f"erasure {letter}: {per[letter][1]}"
    return per, witness


def sturmian_consistent(word, max_n):
    counts = factor_counts(word, max_n)
    if any(counts[n] != n + 1 for n in counts):
        return False
    return all(v <= 1 for v in imbalances(word, max_n).values())


def wse_candidate_ok(word, max_n):
    """Every erasure is Sturmian up to max_n and P(n) <= n^2 + n + 1."""
    counts = factor_counts(word, max_n)
    if any(counts[n] > n * n + n + 1 for n in counts):
        return False
    return all(sturmian_consistent(erase_letter(word, a), max_n) for a in "012")


# -- the monoid {E, phi, phit}* ------------------------------------------------

GENERATORS = {
    "E": {"0": "1", "1": "0"},
    "phi": {"0": "01", "1": "0"},
    "phit": {"0": "10", "1": "0"},
}


def recompose_factors(factors):
    """Images of factors[0] o factors[1] o ..., one letter at a time."""
    out = {}
    for letter in "01":
        word = letter
        for name in reversed(factors):
            word = apply_images(GENERATORS[name], word)
        out[letter] = word
    return out


def generator_ball(max_total):
    """All generator products with |f(0)| + |f(1)| <= max_total.

    Right-multiplying by phi or phit never shortens the total length and E
    keeps it, so a breadth-first search pruned at max_total reaches every
    member of that size.
    """
    start = ("0", "1")
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for im0, im1 in frontier:
            images = {"0": im0, "1": im1}
            for gen in GENERATORS.values():
                prod = compose_images(images, gen)
                key = (prod["0"], prod["1"])
                if len(key[0]) + len(key[1]) <= max_total and key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return seen


def determinant2(images):
    a, b = images["0"].count("0"), images["1"].count("0")
    c, d = images["0"].count("1"), images["1"].count("1")
    return a * d - b * c


# -- erasure-preserving ternary morphisms ---------------------------------------


def projection(images, i, j):
    """Erase j from the images of the letters other than i, recoded to 01."""
    dom = [a for a in "012" if a != i]
    cod = [a for a in "012" if a != j]
    recode = {cod[0]: "0", cod[1]: "1"}
    return {
        str(pos): "".join(recode[c] for c in images[a] if c != j)
        for pos, a in enumerate(dom)
    }


def length_filter_fails(images, i):
    """True when the necessary length conditions for erasing i fail."""
    others = [a for a in "012" if a != i]
    for a in others:
        image = images[a]
        if len(image) < 2 or not any(c in others for c in image):
            return True
    both = images[others[0]] + images[others[1]]
    return any(a not in both for a in others)


def psi_images(n):
    """psi_n from its table for n <= 2 and the doubling recurrence."""
    table = {1: ("01", "20"), 2: ("2010", "01")}
    for m in range(3, n + 1):
        a2, b2 = table[m - 2]
        table[m] = (a2 + b2 + a2, table[m - 1][0])
    return {"0": table[n][0], "1": table[n][1], "2": ""}
