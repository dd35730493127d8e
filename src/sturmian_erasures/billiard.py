"""Cubic billiard codings.

A ray td + rho inside the unit cube, with mirror reflections at the faces,
crosses the coordinate hyperplanes x_i = m at times t = (m - rho_i)/d_i.
Sorting the crossings by time and recording which coordinates cross at each
distinct time yields a coding word over subsets of {0,1,2}; when every event
involves a single coordinate this is a word over the three letters.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, compress, count, groupby, repeat
from operator import le, mod, sub

from . import _EXPORTS
from .exactnum import SqrtBasisNumber, _enclose, _floor_of, _make, _sign_of, rational
from .records import Record
from .words import WordStream

__all__ = _EXPORTS["billiard"]


class BilliardConfig(Record):
    """Direction d and starting point rho, componentwise exact.

    Directions are nonnegative with at least one positive coordinate and the
    starting point lies in the half-open unit cube.
    """

    d: tuple
    rho: tuple

    def __post_init__(self):
        if len(self.d) != 3 or len(self.rho) != 3:
            raise ValueError("d and rho must have three coordinates")
        for name in ("d", "rho"):
            xs = (x if isinstance(x, SqrtBasisNumber) else rational(x) for x in getattr(self, name))
            object.__setattr__(self, name, tuple(xs))
        signs = [x.sign() for x in self.d]
        if min(signs) < 0:
            raise ValueError("direction coordinates must be nonnegative")
        if max(signs) == 0:
            raise ValueError("direction must be nonzero")
        if any(x.floor() for x in self.rho):
            raise ValueError("starting point coordinates must lie in [0, 1)")


class CrossingEvent(Record):
    """One crossing time and the ascending tuple of coordinates involved."""

    t: SqrtBasisNumber
    omega: tuple


def _config_times(config):
    """{i: (x_i, y_i)}, x_i = 1/d_i and y_i = rho_i/d_i, over the moving i."""
    xs = {i: d._inverse() for i, d in enumerate(config.d) if not d.is_zero()}
    return {i: (x, config.rho[i] * x) for i, x in xs.items()}


_CAP = 4096  # the most letters a batch orders, and the longest period kept
_DIGITS = bytes.maketrans(bytes(range(3)), b"012")


def _lines(times):
    """(den, keys, table, firsts, lines, rows, directions) for times =
    {i: (x_i, y_i)}, 0 <= y_i <= x_i: coordinate i = list(times)[pos]
    crosses x = m at t = m*x_i - y_i from m = firsts[pos], 1 if y_i else 0,
    and table[pos] = (X, Y), integer rows over the sorted keys with x_i =
    sum(X*sqrt(key))/den and y_i likewise.  Square roots of distinct
    square-free keys are independent over Q: equal times have equal rows.

    Line classes.  In a class every x_i row is a positive multiple P*v of
    one primitive row v and the y_i rows differ by multiples of v, so each
    crossing time of a member is t0 + n*v, t0 the class's first crossing
    and n = m*P - C >= 0; lines[pos] = (class, P, C), rows[class] =
    (v, t0).  A class is keyed by v and y = y_i - floor(y_i[k]/v[k])*v, k
    the index of the greatest entry of v, positive as x_i > 0; so equal
    times, whose y_a - y_b lie in Z*v, lie in one class at one n.  With one
    key, v = (1,) and y = 0.  A direction is one distinct v."""
    zs = [*chain(*times.values())]
    den = math.lcm(*[z._den for z in zs])
    keys = sorted(set().union(*[z._ints for z in zs]))
    # The rows of den*x_i and den*y_i, straight from their integers.
    rows = [*zip(*[[z._ints.get(key, 0) * (den // z._den) for z in zs] for key in keys])]
    table = [*zip(rows[::2], rows[1::2])]
    if len(keys) == 1:  # one class: P = X and C = Y
        firsts = [1 if y else 0 for _, (y,) in table]
        least = min(m * x - y for m, ((x,), (y,)) in zip(firsts, table))
        lines = [(0, x, y + least) for (x,), (y,) in table]
        return den, keys, table, firsts, lines, [((1,), (least,))], 1
    firsts, lines, bases = [], [], {}  # (v, y) -> [class, least n]
    for xs, ys in table:
        p = math.gcd(*xs)
        v = tuple([x // p for x in xs])
        k = v.index(max(v))  # v[k] > 0, as x_i > 0
        c = ys[k] // v[k]  # y_i = y + c*v, 0 <= y[k] < v[k]: one y a class
        m = 1 if any(ys) else 0
        n = m * p - c  # t = n*v - y
        base = bases.setdefault((v, tuple([a - c * x for a, x in zip(ys, v)])), [len(bases), n])
        base[1] = min(base[1], n)
        firsts.append(m)
        lines.append((base, p, c))
    # Shift each class's n so that its earliest first crossing has n = 0.
    lines = [(cls, p, c + n) for (cls, n), p, c in lines]
    rows = [(v, tuple(map(sub, map(n.__mul__, v), y))) for (v, y), (_, n) in bases.items()]
    return den, keys, table, firsts, lines, rows, len({v for v, _ in bases})


class _Ring:
    """Reads of need clamped to [256, _CAP] letters of a purely periodic
    word, from its period repeated: a ring of at most 2*period + _CAP."""

    def __init__(self, word):
        self.period, self.ring, self.at = len(word), word * (_CAP // len(word) + 2), 0

    def letters(self, need):
        n = min(max(need, 256), _CAP)
        at, self.at = self.at, (self.at + n) % self.period
        return self.ring[at : at + n]


class _Crossings:
    """The batches that order the crossings of times = {i: (x_i, y_i)}, with
    lines = _lines(times) when not given, its rows as table[pos] =
    [(key, X, Y), ...] and rows[class] = [v, t0], {key: c} without zeros.
    lo[pos] <= 2**k * den * t <= lo[pos] + a + m*b encloses the time t at
    which coordinate moving[pos] next crosses x = m = counters[pos],
    (a, b) = spans[pos]; each crossing moves lo[pos] on by steps[pos], the
    lower bound of 2**k * den * x_i.

    Members of a line class enclose their times as enclose(t0) +
    n*enclose(v): lower bounds strictly increase with n, and two crossings
    are equal exactly when their n are, and then so are their lower bounds,
    so letters() never compares such ties; _exact, the sign of a time-row
    difference, is the only exact order test.  A class of one keeps the
    tight enclosure of its first crossing, as its t0 is that crossing.  At
    any k a row encloses to a width of the sum of |c| over its irrational
    keys, t for t0 and v for v, so a member's enclosure is t + n*v = a + m*b
    wide.  Steps grow as 2**k: a 64-bit reading of the shortest step s sets
    k, the least k >= 1 with 2**(k-64)*s >= max(4*(W + 2), W << 20) for
    W = width().  letters() still doubles k >= 1 while 4*(W + 1) > s, so
    each batch starts from 4*(W + 1) <= s, and its proofs that no cluster
    holds two crossings of one coordinate and that every batch commits need
    no more."""

    def __init__(self, times, lines=None):
        self.moving = list(times)
        _, keys, table, self.counters, self.lines, rows, _ = lines or _lines(times)
        self.table = [[*zip(keys, xs, ys)] for xs, ys in table]
        self.rows = [[{key: c for key, c in zip(keys, row) if c} for row in vt] for vt in rows]
        self.codes = [8 * cls + i for i, (cls, _, _) in zip(self.moving, self.lines)]  # see letters
        self.decode = bytes.maketrans(bytes(self.codes), "".join(map(str, self.moving)).encode())
        spreads = [[sum(map(abs, r.values())) - abs(r.get(1, 0)) for r in rs] for rs in self.rows]
        self.spans = [(t - c * v, p * v) for cls, p, c in self.lines for v, t in [spreads[cls]]]
        width = self.width()
        need = max(4 * (width + 2), width << 20) << 64
        s = min(p * _enclose(self.rows[cls][0], 64)[0] for cls, p, _ in self.lines)
        self._enclose_at(max(1, (-(-need // s) - 1).bit_length()))

    def width(self):
        """The widest enclosure, grown by the 4112 steps a batch can add."""
        return max(a + (m + 4112) * b for m, (a, b) in zip(self.counters, self.spans))

    def _enclose_at(self, k):
        """Lower bounds of the next crossings at precision 2**k, each member
        of a class as enclose(t0) + n*enclose(v)."""
        bounds = [(_enclose(v, k)[0], _enclose(t0, k)[0]) for v, t0 in self.rows]
        self.k, self.steps, self.lo = k, [], []
        for m, (cls, p, c) in zip(self.counters, self.lines):
            vs, ts = bounds[cls]
            self.steps.append(p * vs)
            self.lo.append(ts + (m * p - c) * vs)

    def _exact(self, u, v, base):
        """The exact order of two crossings tagged from base: the sign of the
        difference of their integer time rows, ties in coordinate order.  It
        is the only exact order test."""
        a, b = self.codes.index(u & 63), self.codes.index(v & 63)
        ma = self.counters[a] + ((u >> 6) + base - self.lo[a]) // self.steps[a]
        mb = self.counters[b] + ((v >> 6) + base - self.lo[b]) // self.steps[b]
        return _sign_of({
            key: ma * xa - ya - mb * xb + yb
            for (key, xa, ya), (_, xb, yb) in zip(self.table[a], self.table[b])
        }) or a - b

    def letters(self, need):
        """One batch of about n letters of the next events, n = need clamped
        to [256, _CAP].

        Each coordinate's lower bounds form a progression.  Below a horizon
        c it adds its crossings and one sentinel at or past c, each tagged
        64*(lo - base) + code, code = 8*class + i for letter i and base the
        least lower bound (a shift of 64*lo + code, so order and gaps are
        kept), and one sort merges them.  With s the shortest step, c lies
        at least 5*s past the least lower bound (a third of 16 steps) and
        under 4112 steps past any, so W = width() bounds every enclosure the
        batch reaches.  Bounds more than W apart are in certain order, and
        runs of closer ones (clusters), neighbours whose tagged gap is at
        most 64W + 63, are re-sorted by _exact, the only exact order test.
        A gap of 1 or 2 is an exact tie, equal lower bounds on one line,
        that the sort put in coordinate order: two lines' codes differ by 6
        or more, and unequal bounds are at least 64 - 18 apart.  Every other
        such gap is a link.  When one pass finds the least gap above
        64W + 63, no link list is built.  The insertion sort moves the
        crossing after each link back past each crossing that _exact puts
        after it, then each tie behind it alike, stopping at its partner
        unasked as ties sit in coordinate order: no tie is compared, and an
        equal time on another line falls among ties by coordinate.  What
        precedes the first sentinel's cluster is committed.

        W does not depend on k, and the precision is doubled until
        4*(W + 1) <= s.  Linked neighbours lie at most W + 1 apart, so no
        cluster holds two crossings of one coordinate or spans over half a
        step: the first sentinel's cluster never reaches the least lower
        bound, and every batch commits.  Tags stay under 64*(S + 4112*s),
        S the longest step, a bound set by k alone: a sentinel at or past c
        lies under c + S, and any other is a next lower bound, under base +
        S + 2*W as the crossing before it is committed or before 0; and
        c - base < 4112*s, 4*W < s.
        """
        n, width = min(max(need, 256), _CAP), self.width()
        while 4 * (width + 1) > min(self.steps):
            self._enclose_at(2 * self.k)
        lo, steps, base = self.lo, self.steps, min(self.lo)
        top = max(steps) << 8
        c = n * top // sum(top // s for s in steps)
        ranges, sentinels = [], []
        for pos, code in enumerate(self.codes):
            s, first = steps[pos], lo[pos] - base
            k = max(0, -((first - c) // s))  # crossings with lower bound below c
            sentinels.append(64 * (first + k * s) + code)
            ranges.append(range(64 * first + code, sentinels[-1] + 1, 64 * s))
        merged = sorted(chain(*ranges))
        end = bisect_left(merged, min(sentinels))
        # A tagged gap of 1 or 2 is a tie on one line; one of 3 to 64W + 63
        # links two crossings of two lines whose lower bounds are within W + 1.
        links, limit = [], 64 * width + 63
        gaps = list(map(sub, merged[1 : end + 1], merged)) if width else []
        if gaps and min(gaps) <= limit:
            while end and gaps[end - 1] <= limit:
                end -= 1  # the first sentinel's cluster waits for the next batch
            near = compress(count(), map(le, gaps, repeat(limit, end)))
            links = [at for at in near if gaps[at] > 2]
        for at in links:  # insertion sort; it never leaves its cluster
            floor, tie = -1, True
            while tie:  # the crossing after the link, then each tie behind it
                u, to = merged[at + 1], at
                while to > floor and self._exact(merged[to], u, base) > 0:
                    to -= 1
                merged[to + 1 : at + 2] = [u, *merged[to + 1 : at + 1]]
                at, floor, tie = at + 1, to + 1, merged[at + 2] - u < 3
        word = bytes(map(mod, merged, repeat(64, end))).translate(self.decode).decode()
        for pos, i in enumerate(self.moving):
            j = word.count(str(i))
            self.counters[pos] += j
            lo[pos] += j * steps[pos]
        return word


def event_stream(config):
    """Yield crossing events in increasing time order, forever.

    Coordinate i first crosses a hyperplane at the least integer m with
    m - rho_i >= 0 and then at every following integer; coordinates with
    d_i = 0 never cross.  Simultaneous crossings fuse into one event.

    The events group the letters of billiard_word's pump, _coding, by
    crossing time, equal exactly when the time rows {key: m*X - Y} are.
    """
    times = _config_times(config)
    lines = _lines(times)
    den, keys, table, firsts = lines[:4]
    rows = dict(zip(map(str, times), table))
    ms = {str(i): count(m) for i, m in zip(times, firsts)}

    def time_row(letter):
        m, (xs, ys) = next(ms[letter]), rows[letter]
        return {key: m * x - y for key, x, y in zip(keys, xs, ys)}

    letters = chain.from_iterable(map(_coding(times, lines), repeat(256)))
    for row, block in groupby(letters, time_row):
        yield CrossingEvent(t=_make(row, den), omega=tuple(map(int, block)))


def _coding(times, lines=None):
    """The letters pump of the coding of times = {i: (x_i, y_i)}, lines =
    _lines(times) when not given: one integer sort of a period (a _Ring)
    when the coordinates have one direction v and the period has at most
    _CAP letters, sorted and spelled here, else the batches of _Crossings.

    Period.  The crossings of member i with t >= 0 are those with m >= its
    first m: the one before is at -y_i < 0 if y_i > 0, else at -x_i < 0.
    With L = lcm(P_i), adding L/P_i to every m adds L to every n and L*v to
    every time: a bijection of the crossings with t >= 0 onto those with
    t >= L*v that keeps order and ties.  So the word is the crossings in
    [0, L*v), the first L/P_i of each member as x_i = P_i*v, repeated: a
    period of sum(L/P_i) letters.  A longer one, sum(d_i) = 2*10**9 + 17
    for d = (10**9+7, 10**9+9, 1), stays on the batches.

    Sort.  A crossing of class c at n lies at (n + phi_c)*v, phi_c =
    t0_c/v >= 0.  With K classes and rank_c the rank of the fractional part
    of phi_c among theirs, the tag 4*(K*(n + floor(phi_c)) + rank_c) + i
    sorts by time, ties in coordinate order: integer parts first, then the
    fractional parts, which differ between classes (phi_a - phi_b in Z puts
    y_a - y_b in Z*v), so a tie lies in one class at one n.  With one class
    rank and floor(phi), a shift of every tag, are taken as 0; for rational
    rows, v = 1 and n is the integer time m*X - Y less the first one."""
    lines = lines or _lines(times)
    _, keys, _, firsts, classes, rows, directions = lines
    if directions == 1:
        ps = [p for _, p, _ in classes]
        span = math.lcm(*ps)
        period = sum(map(span.__floordiv__, ps))
        if period <= _CAP:
            k, offsets = len(rows), [0]
            if k > 1:
                phis = [_make(dict(zip(keys, t0)), 1) / _make(dict(zip(keys, v)), 1) for v, t0 in rows]
                floors = [phi.floor() for phi in phis]
                ranks = sorted(range(k), key=lambda cls: phis[cls] - floors[cls])
                offsets = [k * f + ranks.index(cls) for cls, f in enumerate(floors)]
            tags = sorted(chain(*[range(t, t + 4 * k * span, 4 * k * p)
                                  for i, m, (cls, p, c) in zip(times, firsts, classes)
                                  for t in [4 * (k * (m * p - c) + offsets[cls]) + i]]))
            return _Ring(bytes(map(mod, tags, repeat(4))).translate(_DIGITS).decode()).letters
    return _Crossings(times, lines).letters


def billiard_word(config):
    """The coding as a stream over 0, 1, 2.

    Each event contributes one block: its crossing coordinates in ascending
    order, so simultaneous crossings appear as "01", "02", "12" or "012".
    """
    return WordStream(source="billiard", pump=_coding(_config_times(config)))


def _quotients(x):
    """Yield a_1, a_2, ... of x = [0; a_1, a_2, ...], irrational, 0 < x < 1.
    Euclid runs on both ends of lo <= 2**k * den * x <= hi, yielding each
    new quotient a_i they share as it comes; k doubles when more are needed."""
    known, k = 1, 64  # a_0 = 0 is not yielded
    while True:
        lo, hi = _enclose(x._ints, k)
        p, q, r, s, i = lo, x._den << k, hi, x._den << k, 0
        while q and s and p // q == r // s:
            a = p // q
            if i == known:
                known += 1
                yield a
            p, q, r, s, i = q, p - a * q, s, r - a * s, i + 1
        k *= 2


def _characteristic(alpha):
    """Yield (unit, copies) pairs whose letters, in order, are "0" c_alpha:
    0^(a_1) 1, then s_(n-1)^(a_n - 1) s_(n-2) for n >= 2.  s_n is built
    only when the next pair is asked for, so after all its letters."""
    quotients = _quotients(alpha)
    a = next(quotients)
    yield "0", a
    yield "1", 1
    prev, cur = "0", "0" * (a - 1) + "1"
    for a in quotients:
        yield cur, a - 1
        yield prev, 1
        prev, cur = cur, cur * a + prev


def mechanical_stream(alpha, rho):
    """The word s(n) = floor((n+1)a + r) - floor(na + r), n >= 0, for
    0 < a < 1 and 0 <= r < 1: the characteristic word from a's continued
    fraction when r = 0 and a is irrational, else read off a two-coordinate
    billiard by _coding: for a rational a = p/q, one integer sort of the q
    letters of a period, from r' = (u + 1/2)/q, u = floor(q*r).

    Characteristic word.  s(0) = floor(a) = 0, and for n >= 1 s(n) =
    floor((n+1)a) - floor(na) = c_a(n - 1), c_a(n) = floor((n+2)a) -
    floor((n+1)a), the characteristic word: s = "0" c_a.  For irrational
    a = [0; a_1, a_2, ...], c_a is the limit of the standard words s_(-1) = 1,
    s_0 = 0, s_1 = s_0^(a_1 - 1) s_(-1), s_n = s_(n-1)^(a_n) s_(n-2)
    (Lothaire, Algebraic Combinatorics on Words, ch. 2).

    Quotients.  Euclid's algorithm on a fraction y_0 takes the Gauss steps
    a_i = floor(y_i), y_(i+1) = 1/(y_i - a_i) until a remainder is zero.
    Divided by 2**k * den, the enclosure gives rationals l < a < h, strict
    as a is irrational.  Suppose both ends share a_0..a_j.  Then a's complete
    quotient y_i lies between theirs for each i <= j: floor is monotone, so
    a_i is also a's; a's remainder lies in (0, 1) like theirs (nonzero, as
    theirs went on and a's is irrational), and 1/(y - a_i) is monotone on
    (a_i, a_i + 1), so y_(i+1) again lies between theirs.  So each shared
    quotient is a's.  And each of a's is shared at some k: the reals whose
    first quotients are a_0..a_j form an interval with rational ends, so a
    lies inside it, and the enclosure narrows to a as k doubles.

    Pieces.  s_n = s_(n-1) t_n with t_n = s_(n-1)^(a_n - 1) s_(n-2), so s_n =
    s_1 t_2 ... t_n, and s_n is a prefix of s_(n+1), of length at least
    |s_(n-1)| + |s_(n-2)| for n >= 2: the pieces s_1, t_2, t_3, ... in order
    spell lim s_n = c_a.  t_n is made of s_(n-1), the letters produced
    before it, and s_(n-2), a prefix of them or the letter 0: so a piece is
    built from letters already produced, and a huge a_n costs only the
    copies that are read.

    Swap.  Let b = 1 - a and c = 1 - r.  As (n+1)b + c = n+2 - ((n+1)a + r)
    and ceil(-x) = -floor(x), u(n) = ceil((n+1)b + c) - ceil(nb + c) is
    1 - s(n).  And u(n) = 1 exactly when an integer j has nb + c <= j <
    (n+1)b + c, that is, n = floor((j - c)/b) for some j >= 1 (0 < c <= 1).

    Billiard.  Let d = (a, b, 0), r_0, r_1 in [0, 1], and r'_i = r_i, or 1
    when r_i = 0: the k-th crossing of coordinate i, k >= 1, is at
    (k - r'_i)/d_i.  With ties in coordinate order, the k-th 1 of the coding
    follows k - 1 ones and floor(a*t + r'_0) zeros, t = (k - r'_1)/b, so it
    is letter k - 1 + floor(a*t + r'_0) = floor((k - c')/b) with
    c' = b(1 - r'_0) + a*r'_1.  The starts (0, (1-r)/a, 0) for r >= b and
    (r/b, 0, 0) for 0 < r < b give c' = c, so the coding is u.  Scaled by
    ab > 0 the times keep their order: coordinate 0 crosses x = m at
    m*b - r_0*b and coordinate 1 at m*a - r_1*a.

    Start rule.  floor((N + y)/q) = floor((N + floor(y))/q) for integers N
    and q >= 1, as no multiple of q lies in (M, M + 1), M = N + floor(y).
    So for a = p/q, s depends on r only through u = floor(qr): it is the
    word from r' = (u + 1/2)/q > 0, whose rows are rational, one line class.
    """
    if not isinstance(alpha, SqrtBasisNumber) or not isinstance(rho, SqrtBasisNumber):
        raise ValueError("alpha and rho must be SqrtBasisNumber values")
    if alpha.is_zero() or alpha.floor():
        raise ValueError("alpha must satisfy 0 < alpha < 1")
    if rho.floor():
        raise ValueError("rho must satisfy 0 <= rho < 1")
    if alpha.is_rational():  # the start rule: r' = (u + 1/2)/q
        u = _floor_of({key: alpha._den * c for key, c in rho._ints.items()}, rho._den)
        rho = _make({1: 2 * u + 1}, 2 * alpha._den)
    if rho.is_zero():
        pieces, unit, copies, at = _characteristic(alpha), "", 0, 0

        def pump(need):
            """Exactly need letters: whole copies of a unit at once, and a
            slice of one where a read starts or ends inside it."""
            nonlocal unit, copies, at
            out = []
            while need:
                while not copies:
                    unit, copies = next(pieces)
                if at or need < len(unit):
                    piece = unit[at : at + need]
                    at += len(piece)
                    if at == len(unit):
                        at, copies = 0, copies - 1
                else:
                    whole = min(copies, need // len(unit))
                    piece, copies = unit * whole, copies - whole
                out.append(piece)
                need -= len(piece)
            return "".join(out)

    else:
        beta, zero = 1 - alpha, rational(0)
        y0, y1 = (rho, zero) if (rho - beta).sign() < 0 else (zero, 1 - rho)
        letters, swap = _coding({0: (beta, y0), 1: (alpha, y1)}), str.maketrans("01", "10")

        def pump(need):
            return letters(need).translate(swap)

    return WordStream(pump, "mechanical")


def classify(config):
    """Coarse trajectory type from the direction alone: the direction
    count of _lines over the rows of the moving d_i, each with y = 0.

    d_a/d_b, rational exactly when 1/d_a : 1/d_b is, is rational exactly
    when the rows of d_a and d_b are proportional, as square roots of
    distinct square-free keys are independent over Q: when both lie in one
    direction.  One moving coordinate leaves a single letter; one direction
    gives a periodic word; two moving coordinates in two directions give a
    Sturmian-type word; three in three directions are a candidate for
    Sturmian erasures, and three in two directions are degenerate.
    """
    moving = {i: (x, rational(0)) for i, x in enumerate(config.d) if not x.is_zero()}
    movers, directions = len(moving), _lines(moving)[-1]
    if directions == 1:
        return "Degenerate" if movers == 1 else "Periodic"
    if directions == 2:
        return "SturmianProjection" if movers == 2 else "Degenerate"
    return "WSECandidate"
