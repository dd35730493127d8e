"""Cubic billiard codings.

A ray td + rho inside the unit cube, with mirror reflections at the faces,
crosses the coordinate hyperplanes x_i = m at times t = (m - rho_i)/d_i.
Sorting the crossings by time and recording which coordinates cross at each
distinct time yields a coding word over subsets of {0,1,2}; when every event
involves a single coordinate this is a word over the three letters.
"""

from __future__ import annotations


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


def _crossings(config):
    """Yield (m, omega) forever, in increasing time order.

    omega is the ascending tuple of coordinates crossing together and m the
    hyperplane x = m that omega[0] crosses.  Coordinate i crosses x = m at
    t = (m - rho_i)/d_i, and t_a < t_b exactly when
    m_a*d_b - m_b*d_a + K_ab < 0 with K_ab = rho_b*d_a - rho_a*d_b.  Each
    comparison first adds integer enclosures of d_b, d_a and K_ab scaled by
    2**64 over one denominator, precomputed per pair; only an interval that
    holds 0 falls back to the exact sign of the integer vector.
    """
    moving = [i for i in range(3) if config.d[i].sign() > 0]
    counters = [0 if config.rho[i].sign() == 0 else 1 for i in moving]
    pairs = {}
    for pa, a in enumerate(moving):
        for pb, b in enumerate(moving[:pa]):
            d_a, d_b = config.d[a], config.d[b]
            k_ab = config.rho[b] * d_a - config.rho[a] * d_b
            (vb, va, vk), _ = _common_scale(d_b, d_a, k_ab)
            lo_b, hi_b = _enclose(vb, 64)
            lo_a, hi_a = _enclose(va, 64)
            lo_k, hi_k = _enclose(vk, 64)
            rows = [
                (key, vb.get(key, 0), va.get(key, 0), vk.get(key, 0))
                for key in sorted(vb.keys() | va.keys() | vk.keys())
            ]
            pairs[pa, pb] = (lo_b, hi_b, lo_a, hi_a, lo_k, hi_k, rows)
    while True:
        best = [0]
        for pos in range(1, len(moving)):
            lo_b, hi_b, lo_a, hi_a, lo_k, hi_k, rows = pairs[pos, best[0]]
            ma, mb = counters[pos], counters[best[0]]
            if ma * lo_b - mb * hi_a + lo_k > 0:
                cmp = 1
            elif ma * hi_b - mb * lo_a + hi_k < 0:
                cmp = -1
            else:
                cmp = _sign_of({key: ma * x - mb * y + z for key, x, y, z in rows})
            if cmp < 0:
                best = [pos]
            elif cmp == 0:
                best.append(pos)
        yield counters[best[0]], tuple(map(moving.__getitem__, best))
        for pos in best:
            counters[pos] += 1


def event_stream(config):
    """Yield crossing events in increasing time order, forever.

    Coordinate i first crosses a hyperplane at the least integer m with
    m - rho_i >= 0 and then at every following integer; coordinates with
    d_i = 0 never cross.  Simultaneous crossings fuse into one event.
    """
    # t = m*(1/d_i) - rho_i/d_i, both constants fixed per coordinate
    times = {}
    for i in range(3):
        if config.d[i].sign() > 0:
            inv = 1 / config.d[i]
            x, y = inv.coords, (config.rho[i] * inv).coords
            times[i] = [
                (key, x.get(key, 0), y.get(key, 0))
                for key in sorted(x.keys() | y.keys())
            ]
    for m, omega in _crossings(config):
        t = SqrtBasisNumber._from_squarefree(
            {key: m * x - y for key, x, y in times[omega[0]]}
        )
        yield CrossingEvent(t=t, omega=omega)


def billiard_word(config):
    """The coding as a stream over 0, 1, 2.

    Each event contributes one block: its crossing coordinates in ascending
    order, so simultaneous crossings appear as "01", "02", "12" or "012".
    """
    crossings = _crossings(config)

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
