"""Cubic billiard codings.

A ray td + rho inside the unit cube, with mirror reflections at the faces,
crosses the coordinate hyperplanes x_i = m at times t = (m - rho_i)/d_i.
Sorting the crossings by time and recording which coordinates cross at each
distinct time yields a coding word over subsets of {0,1,2}; when every event
involves a single coordinate this is a word over the three letters.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import SqrtBasisNumber, _common_scale, _enclose, _sign_of, rational
from .records import Record
from .words import WordStream

__all__ = [
    "BilliardConfig",
    "CrossingEvent",
    "event_stream",
    "billiard_word",
    "classify",
]


def _coerce(x):
    if isinstance(x, SqrtBasisNumber):
        return x
    return rational(x)


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
        object.__setattr__(self, "d", tuple(_coerce(x) for x in self.d))
        object.__setattr__(self, "rho", tuple(_coerce(x) for x in self.rho))
        signs = [x.sign() for x in self.d]
        if any(s < 0 for s in signs):
            raise ValueError("direction coordinates must be nonnegative")
        if all(s == 0 for s in signs):
            raise ValueError("direction must be nonzero")
        one = rational(1)
        for x in self.rho:
            if x.sign() < 0 or (x - one).sign() >= 0:
                raise ValueError("starting point coordinates must lie in [0, 1)")


class CrossingEvent(Record):
    """One crossing time and the ascending tuple of coordinates involved."""

    t: SqrtBasisNumber
    omega: tuple

    def to_json(self):
        return {"t": str(self.t), "omega": list(self.omega)}


def _time_rows(config):
    """Coordinate i crosses x = m at t = m*x_i - y_i with x_i = 1/d_i and
    y_i = rho_i/d_i.  Returns ({i: [(key, X, Y), ...]}, den) over the moving
    coordinates i, where x_i = sum(X*sqrt(key))/den and y_i likewise, with
    one sorted key list and one den > 0 for every coordinate."""
    moving = [i for i in range(3) if config.d[i].sign() > 0]
    xs = [1 / config.d[i] for i in moving]
    ints, den = _common_scale(*xs, *(config.rho[i] * x for i, x in zip(moving, xs)))
    keys = sorted(set().union(*ints))
    rows = {
        i: [(key, x.get(key, 0), y.get(key, 0)) for key in keys]
        for i, x, y in zip(moving, ints, ints[len(xs) :])
    }
    return rows, den


def _crossings(rows):
    """Yield (m, omega) forever, in increasing time order.

    omega is the ascending tuple of coordinates crossing together and m the
    hyperplane x = m that omega[0] crosses.  Each coordinate's next time is
    an integer enclosure lo <= 2**64 * den * t <= hi, which moves on by the
    enclosure of x_i when the coordinate crosses.  Only enclosures that
    overlap fall back to the exact sign of the integer difference, and equal
    times fuse.
    """
    moving, table = list(rows), list(rows.values())
    # Coordinate i first crosses at the least integer m >= rho_i.
    counters = [1 if any(y for _, _, y in row) else 0 for row in table]
    steps = [_enclose({key: x for key, x, _ in row}, 64) for row in table]
    first = [{key: m * x - y for key, x, y in row} for m, row in zip(counters, table)]
    lo, hi = map(list, zip(*(_enclose(t, 64) for t in first)))
    while True:
        best = [0]
        for pos in range(1, len(moving)):
            b = best[0]
            if lo[pos] > hi[b]:
                cmp = 1
            elif hi[pos] < lo[b]:
                cmp = -1
            else:
                cmp = _sign_of({
                    key: counters[pos] * xa - ya - counters[b] * xb + yb
                    for (key, xa, ya), (_, xb, yb) in zip(table[pos], table[b])
                })
            if cmp < 0:
                best = [pos]
            elif cmp == 0:
                best.append(pos)
        yield counters[best[0]], tuple(map(moving.__getitem__, best))
        for pos in best:
            counters[pos] += 1
            lo[pos] += steps[pos][0]
            hi[pos] += steps[pos][1]


def event_stream(config):
    """Yield crossing events in increasing time order, forever.

    Coordinate i first crosses a hyperplane at the least integer m with
    m - rho_i >= 0 and then at every following integer; coordinates with
    d_i = 0 never cross.  Simultaneous crossings fuse into one event.
    """
    rows, den = _time_rows(config)
    for m, omega in _crossings(rows):
        t = SqrtBasisNumber._from_squarefree(
            {key: Fraction(m * x - y, den) for key, x, y in rows[omega[0]]}
        )
        yield CrossingEvent(t=t, omega=omega)


def billiard_word(config):
    """The coding as a stream over 0, 1, 2.

    Each event contributes one block: its crossing coordinates in ascending
    order, so simultaneous crossings appear as "01", "02", "12" or "012".
    """
    crossings = _crossings(_time_rows(config)[0])

    def pump(need):
        out = []
        total = 0
        while total < need:
            block = "".join(map(str, next(crossings)[1]))
            out.append(block)
            total += len(block)
        return "".join(out)

    return WordStream(source="billiard", pump=pump)


def classify(config):
    """Coarse trajectory type from the direction alone.

    Two zero coordinates leave a single letter; with one zero the two moving
    coordinates give a periodic word when their ratio is rational and a
    Sturmian-type word otherwise; with all three moving the word is periodic
    when all ratios are rational, a candidate for Sturmian erasures when all
    are irrational, and degenerate in the mixed case.
    """
    moving = [i for i in range(3) if config.d[i].sign() > 0]
    if len(moving) == 1:
        return "Degenerate"
    ratios_rational = [
        (config.d[a] / config.d[b]).is_rational()
        for pos, a in enumerate(moving)
        for b in moving[pos + 1 :]
    ]
    if len(moving) == 2:
        return "Periodic" if ratios_rational[0] else "SturmianProjection"
    if all(ratios_rational):
        return "Periodic"
    if not any(ratios_rational):
        return "WSECandidate"
    return "Degenerate"
