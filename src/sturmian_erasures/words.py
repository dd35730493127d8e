"""Finite and infinite words over {0,1,2}: erasures, streams, and the
complexity and balance analyzers.

Finite words are plain strings over "012".  Infinite words are WordStream
values: append-only prefix buffers fed by a pump, so prefix(L) is always a
prefix of prefix(L') for L <= L'.

The factor complexity P(n) comes from one suffix automaton (Blumer et
al., 1985), built in one pass: each state holds the factors of lengths
len(link)+1 .. len(state), so a difference array over those ranges gives
every P(n) at once.  The imbalance comes from a bit-sliced counter over
the positions of each letter, held as one int; wse_verdict builds the
automaton only for an erasure that is not balanced.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from .morphisms import A3, PHI, _letter_orbit, apply
from .records import Record

__all__ = _EXPORTS["words"]


class BoundedOutputError(RuntimeError):
    """Raised when a morphic image cannot produce the requested prefix length."""


def check_word(w):
    # Three C-level counts cost about a fifth of building set(w).
    if sum(map(w.count, A3)) != len(w):
        bad = next(c for c in w if c not in A3)
        raise ValueError(f"letter {bad!r} outside alphabet 012")
    return w


def erase(w, letter):
    """Delete every occurrence of the letter (the projection pi_letter)."""
    if len(letter) != 1 or letter not in A3:
        raise ValueError(f"letter {letter!r} outside alphabet 012")
    return check_word(w).replace(letter, "")


class WordStream:
    """Lazily extensible prefix of an infinite word.

    pump(need) returns one or more whole units of its word as a string
    (periods, pieces, batches or images), need being the number of letters
    still missing, and _read alone cuts them to a prefix.  The buffer
    starts empty: every letter comes from the pump.
    """

    __slots__ = ("source", "_pump", "_buf")

    def __init__(self, pump, source):
        self.source = source
        self._pump = pump
        self._buf = ""

    def _read(self, start, stop):
        """Letters start..stop-1."""
        # One join per call keeps a prefix pumped in many chunks linear.
        chunks, have = [self._buf], len(self._buf)
        try:
            while have < stop:
                chunks.append(self._pump(stop - have))
                have += len(chunks[-1])
        finally:
            self._buf = "".join(chunks)
        return self._buf[start:stop]

    def prefix(self, length):
        if length < 0:
            raise ValueError("length must be >= 0")
        return self._read(0, length)


def fixed_point_stream(f, seed):
    """The unique fixed point of f starting with seed.

    Requires f(seed) to begin with seed and be longer than it, and f to be
    non-erasing on every letter reachable from seed.
    """
    image = apply(f, seed)
    if not image.startswith(seed) or len(image) <= len(seed):
        raise ValueError(
            f"morphism is not prolongable on {seed!r}: image {image!r}"
        )
    reachable = frozenset().union(*_letter_orbit(f, seed))
    empty = [a for a in sorted(reachable) if f.images[a] == ""]
    if empty:
        raise ValueError(f"morphism erases reachable letters {empty}")

    # f^n(seed) = seed p f(p) ... f^(n-1)(p) with p = f(seed)[len(seed):], so
    # the first pump returns f(seed), and after it each chunk is the image of
    # the one before it.  A later pump applies f to only as much of the
    # previous chunk as its request needs.
    longest = max(map(len, f.images.values()))
    chunk, built, at = None, [], 0

    def pump(need):
        nonlocal chunk, built, at
        if chunk is None:
            chunk = image[len(seed):]
            return image
        if at >= len(chunk):
            chunk, built, at = "".join(built), [], 0
        start, at = at, at + max(1, need // longest)
        built.append(apply(f, chunk[start:at]))
        return built[-1]

    return WordStream(pump, "fixed-point")


def fibonacci_stream():
    """Fixed point of 0 -> 01, 1 -> 0."""
    return fixed_point_stream(PHI, "0")


_PULL_FACTOR = 64


def apply_stream(f, s):
    """Lazy image of a stream under a morphism.

    Each pump applies f to about (letters missing) // (longest image) input
    letters, so a request is overshot by less than one image, and returns
    once an image has a letter.  Raises BoundedOutputError when
    _PULL_FACTOR * L input letters yield fewer than L output letters.
    """
    longest = max([1, *map(len, f.images.values())])
    consumed = produced = 0

    def pump(need):
        nonlocal consumed, produced
        while consumed < _PULL_FACTOR * (produced + need):
            chunk = s._read(consumed, consumed + max(1, need // longest))
            consumed += len(chunk)
            image = apply(f, chunk)
            if image:
                produced += len(image)
                return image
        raise BoundedOutputError(
            f"morphic image produced {produced} letters "
            f"from {consumed} inputs (factor {_PULL_FACTOR})"
        )

    return WordStream(pump, "morphic-image")


class ComplexityProfile(Record):
    """counts[n] = number of distinct length-n factors of the analyzed prefix."""

    max_n: int
    counts: dict
    prefix_length: int


class BalanceProfile(Record):
    """imbalance[n] = max over letters of (max - min) letter count over
    length-n windows; order = max imbalance over the tested range."""

    max_n: int
    imbalance: dict
    order: int
    prefix_length: int


def _checked_max_n(prefix, max_n):
    """Validate the prefix and max_n (default min(64, isqrt(len)))."""
    check_word(prefix)
    if max_n is None:
        max_n = min(64, math.isqrt(len(prefix)))
    if not 1 <= max_n <= len(prefix):
        raise ValueError(f"max_n {max_n} out of range for prefix of length {len(prefix)}")
    return max_n


def complexity(prefix, max_n=None):
    max_n = _checked_max_n(prefix, max_n)
    # Suffix automaton, preallocated for its at most 2L states: trans[c][v]
    # is the target of state v on letter c, or -1 (one flat list per letter).
    letters = sorted(set(prefix))
    code = {c: i for i, c in enumerate(letters)}
    cap = 2 * len(prefix) + 1
    trans = [[-1] * cap for _ in letters]
    link = [0] * cap
    link[0] = -1
    length = [0] * cap
    last, size = 0, 1
    for c in map(code.__getitem__, prefix):
        t = trans[c]
        cur = size
        size += 1
        length[cur] = length[last] + 1
        p = last
        while p != -1 and t[p] == -1:
            t[p] = cur
            p = link[p]
        if p != -1:
            q = t[p]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = size
                size += 1
                length[clone] = length[p] + 1
                link[clone] = link[q]
                for u in trans:
                    u[clone] = u[q]
                while p != -1 and t[p] == q:
                    t[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    # State v holds one factor of each length len(link(v))+1 .. len(v).
    diff = [0] * (max_n + 2)
    for v in range(1, size):
        lo = length[link[v]] + 1
        if lo <= max_n:
            diff[lo] += 1
            diff[min(length[v], max_n) + 1] -= 1
    counts = {}
    run = 0
    for n in range(1, max_n + 1):
        run += diff[n]
        counts[n] = run
    return ComplexityProfile(max_n=max_n, counts=counts, prefix_length=len(prefix))


def balance_order(prefix, max_n=None):
    """imbalance[n], n = 1 .. max_n: the largest over letters a of max - min,
    the extreme counts of a over the windows prefix[s:s+n], 0 <= s <= L - n.

    The positions of a are the bits of one int (int(..., 2) reads a
    power-of-two base, which the int/str digit limit exempts).  A bit-sliced
    counter, planes[k] holding bit k of each start's count, adds bits >> (n-1)
    with one ripple carry per n; max and min are read greedily from the top
    plane down.  A binary word needs one letter, whose complement has its spread.
    """
    max_n = _checked_max_n(prefix, max_n)
    letters = sorted(set(prefix))
    imbalance = dict.fromkeys(range(1, max_n + 1), 0)
    for a in letters if len(letters) == 3 else letters[:1]:
        bits = int(prefix[::-1].translate({ord(b): "01"[a == b] for b in A3}), 2)
        planes = []
        for n in range(1, max_n + 1):
            carry = bits >> (n - 1)
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
            # Valid starts whose counts match the max (min) on planes read so far.
            top = bottom = (1 << (len(prefix) - n + 1)) - 1
            spread = 0
            for k in reversed(range(len(planes))):
                plane = planes[k]
                if top & plane:
                    top &= plane
                    spread += 1 << k
                if bottom & plane == bottom:
                    spread -= 1 << k
                else:
                    bottom &= ~plane
            imbalance[n] = max(imbalance[n], spread)
    return BalanceProfile(max_n=max_n, imbalance=imbalance, order=max(imbalance.values()),
                          prefix_length=len(prefix))


class SturmianVerdict(Record):
    """Refuted carries a witness; Consistent carries the covered window size.

    A finite prefix can refute the Sturmian property but never prove it.
    """

    consistent: bool
    witness: str | None = None
    coverage: int | None = None


def sturmian_verdict(profile, balance):
    if profile.prefix_length != balance.prefix_length:
        raise ValueError("profiles computed from different prefixes")
    if profile.counts.get(1, 0) > 2:
        raise ValueError("alphabet larger than two letters")
    for n in sorted(profile.counts):
        if profile.counts[n] > n + 1:
            return SturmianVerdict(
                consistent=False, witness=f"P({n})={profile.counts[n]} > {n + 1}"
            )
    for n in sorted(balance.imbalance):
        if balance.imbalance[n] >= 2:
            return SturmianVerdict(
                consistent=False,
                witness=f"imbalance({n})={balance.imbalance[n]} >= 2",
            )
    return SturmianVerdict(
        consistent=True, coverage=min(profile.max_n, balance.max_n)
    )


class WSEVerdict(Record):
    """Per-erasure Sturmian verdicts for a ternary prefix."""

    consistent: bool
    per_erasure: dict
    witness: str | None = None


def wse_verdict(prefix, max_n):
    """Erase each letter and test the Sturmian verdict of the projection.

    Erasure e gets sturmian_verdict(complexity(e, n_cap), balance_order(e,
    n_cap)), n_cap = min(max_n, len(e)), with complexity skipped at balance
    order <= 1: the factors of length <= n_cap then form a factorial set of
    balanced words, which has at most n + 1 words of length n (Lothaire,
    Algebraic Combinatorics on Words, Prop. 2.1.2), so no P(n) refutes e.
    """
    max_n = _checked_max_n(prefix, max_n)
    per = {}
    for i in A3:
        erased = prefix.replace(i, "")
        if not erased:
            raise ValueError(f"erasing {i!r} leaves an empty prefix")
        n_cap = min(max_n, len(erased))
        balance = balance_order(erased, n_cap)
        per[i] = (sturmian_verdict(complexity(erased, n_cap), balance) if balance.order >= 2
                  else SturmianVerdict(consistent=True, coverage=n_cap))
    witness = next((f"erasure {i}: {v.witness}" for i, v in per.items() if not v.consistent), None)
    return WSEVerdict(consistent=witness is None, per_erasure=per, witness=witness)
