"""Finite and infinite words over {0,1,2}: erasures, streams, and the
complexity / balance / periodicity analyzers.

Finite words are plain strings over "012".  Infinite words are WordStream
values: append-only prefix buffers fed by a pump, so prefix(L) is always a
prefix of prefix(L') for L <= L'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .morphisms import apply

__all__ = [
    "BoundedOutputError",
    "WordStream",
    "ComplexityProfile",
    "BalanceProfile",
    "SturmianVerdict",
    "WSEVerdict",
    "check_word",
    "erase",
    "fibonacci_numbers",
    "fibonacci_stream",
    "fixed_point_stream",
    "mechanical_stream",
    "apply_stream",
    "complexity",
    "balance_order",
    "period_scan",
    "sturmian_verdict",
    "wse_verdict",
]

ALPHABET = "012"


class BoundedOutputError(RuntimeError):
    """Raised when a stream cannot produce the requested prefix length."""


def check_word(w):
    if any(c not in ALPHABET for c in w):
        bad = next(c for c in w if c not in ALPHABET)
        raise ValueError(f"letter {bad!r} outside alphabet 012")
    return w


def erase(w, letter):
    """Delete every occurrence of the letter (the projection pi_letter)."""
    if letter not in ALPHABET:
        raise ValueError(f"letter {letter!r} outside alphabet 012")
    return w.replace(letter, "")


def fibonacci_numbers(count):
    """u_0 = 0, u_1 = 1, u_(n+1) = u_n + u_(n-1); returns u_0..u_(count-1)."""
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


class WordStream:
    """Lazily extensible prefix of an infinite word.

    pump(need) must return at least one more letter (as a string) or raise
    BoundedOutputError; need is the number of letters still missing.
    """

    __slots__ = ("source", "_pump", "_buf")

    def __init__(self, pump, source="literal"):
        self.source = source
        self._pump = pump
        self._buf = ""

    def prefix(self, length):
        if length < 0:
            raise ValueError("length must be >= 0")
        while len(self._buf) < length:
            chunk = self._pump(length - len(self._buf))
            if not chunk:
                raise BoundedOutputError(
                    f"{self.source} stream ended at {len(self._buf)} letters, "
                    f"{length} requested"
                )
            self._buf += chunk
        return self._buf[:length]


def literal_stream(w, source="literal"):
    """A stream over a fixed finite word (errors past its end)."""
    state = {"served": 0}

    def pump(_need):
        if state["served"] >= len(w):
            raise BoundedOutputError(
                f"{source} stream ended at {len(w)} letters"
            )
        state["served"] = len(w)
        return w

    return WordStream(pump, source)


def fixed_point_stream(f, seed):
    """The unique fixed point of f starting with seed.

    Requires f(seed) to begin with seed with |f(seed)| >= 2, and f to be
    non-erasing on every letter reachable from seed.
    """
    image = apply(f, seed)
    if not image.startswith(seed) or len(image) < 2:
        raise ValueError(
            f"morphism is not prolongable on {seed!r}: image {image!r}"
        )
    reachable = set(seed)
    frontier = set(seed)
    while frontier:
        nxt = set()
        for a in frontier:
            if a not in f.images:
                raise ValueError(f"letter {a!r} reachable from {seed!r} has no image")
            nxt |= set(f.images[a])
        frontier = nxt - reachable
        reachable |= nxt
    empty = [a for a in sorted(reachable) if f.images[a] == ""]
    if empty:
        raise ValueError(f"morphism erases reachable letters {empty}")

    state = {"word": seed, "served": 0}

    def pump(_need):
        # Iterating w -> f(w) extends the previous word, so after the seed
        # itself each pump emits the newly grown suffix.
        if state["served"] == len(state["word"]):
            prev = state["word"]
            state["word"] = apply(f, prev)
        chunk = state["word"][state["served"]:]
        state["served"] = len(state["word"])
        return chunk

    return WordStream(pump, "fixed-point")


def fibonacci_stream():
    """Fixed point of 0 -> 01, 1 -> 0 (imported lazily to avoid a cycle)."""
    from .morphisms import PHI

    stream = fixed_point_stream(PHI, "0")
    stream.source = "fixed-point"
    return stream


def mechanical_stream(alpha, rho):
    """The word s(n) = floor((n+1)a + r) - floor(na + r), exact arithmetic."""
    from .exactnum import SqrtBasisNumber, _common_scale, _enclose, _floor_of

    if not isinstance(alpha, SqrtBasisNumber) or not isinstance(rho, SqrtBasisNumber):
        raise ValueError("alpha and rho must be SqrtBasisNumber values")
    if not (alpha.sign() > 0 and (alpha - 1).sign() < 0):
        raise ValueError("alpha must satisfy 0 < alpha < 1")
    if not (rho.sign() >= 0 and (rho - 1).sign() < 0):
        raise ValueError("rho must satisfy 0 <= rho < 1")

    # With den*alpha and den*rho integer vectors enclosed as
    # [lo, hi] / 2**64, n*alpha + rho lies in [n*lo_a + lo_r, n*hi_a + hi_r]
    # / unit; when both ends share a floor it is the exact one.  Rational
    # inputs have lo == hi, so only an irrational value near an integer
    # falls back to the exact floor.
    (a, r), den = _common_scale(alpha, rho)
    lo_a, hi_a = _enclose(a, 64)
    lo_r, hi_r = _enclose(r, 64)
    unit = den << 64
    keys = a.keys() | r.keys()
    state = {"n": 0, "floor": 0}

    def pump(need):
        # 0 < alpha < 1, so each step raises the floor by 0 or 1.
        out = []
        n, fl = state["n"], state["floor"]
        for _ in range(max(need, 64)):
            n += 1
            f = (n * lo_a + lo_r) // unit
            if f != (n * hi_a + hi_r) // unit:
                f = _floor_of({b: n * a.get(b, 0) + r.get(b, 0) for b in keys}, den)
            out.append("1" if f > fl else "0")
            fl = f
        state["n"], state["floor"] = n, fl
        return "".join(out)

    return WordStream(pump, "mechanical")


def apply_stream(f, s, pull_factor=64):
    """Lazy image of a stream under a morphism.

    Raises BoundedOutputError when pull_factor * L input letters yield fewer
    than L output letters.
    """
    state = {"consumed": 0, "produced": 0, "step_cap": None}

    def pump(need):
        target = state["produced"] + need
        out = []
        got = 0
        while got < need:
            if state["consumed"] >= pull_factor * target:
                raise BoundedOutputError(
                    f"morphic image produced {state['produced'] + got} letters "
                    f"from {state['consumed']} inputs (factor {pull_factor})"
                )
            step = state["step_cap"] or max(need, 256)
            start = state["consumed"]
            try:
                chunk = s.prefix(start + step)[start:]
            except BoundedOutputError:
                if step == 1:
                    raise
                # Finite source: finish it one letter at a time.
                state["step_cap"] = 1
                continue
            state["consumed"] += len(chunk)
            piece = apply(f, chunk)
            out.append(piece)
            got += len(piece)
        state["produced"] += got
        return "".join(out)

    return WordStream(pump, "morphic-image")


@dataclass(frozen=True)
class ComplexityProfile:
    """counts[n] = number of distinct length-n factors of the analyzed prefix."""

    max_n: int
    counts: dict
    prefix_length: int

    def to_json(self):
        return {str(n): self.counts[n] for n in sorted(self.counts)}


@dataclass(frozen=True)
class BalanceProfile:
    """imbalance[n] = max over letters of (max - min) letter count over
    length-n windows; order = max imbalance over the tested range."""

    max_n: int
    imbalance: dict
    order: int
    prefix_length: int


def _default_max_n(prefix):
    return min(64, math.isqrt(len(prefix)))


def complexity(prefix, max_n=None):
    check_word(prefix)
    if max_n is None:
        max_n = _default_max_n(prefix)
    if not 1 <= max_n <= len(prefix):
        raise ValueError(f"max_n {max_n} out of range for prefix of length {len(prefix)}")
    counts = {}
    for n in range(1, max_n + 1):
        counts[n] = len({prefix[i : i + n] for i in range(len(prefix) - n + 1)})
    return ComplexityProfile(max_n=max_n, counts=counts, prefix_length=len(prefix))


def balance_order(prefix, max_n=None):
    check_word(prefix)
    if max_n is None:
        max_n = _default_max_n(prefix)
    if not 1 <= max_n <= len(prefix):
        raise ValueError(f"max_n {max_n} out of range for prefix of length {len(prefix)}")
    letters = sorted(set(prefix))
    cum = {}
    for a in letters:
        acc = [0]
        run = 0
        for c in prefix:
            run += 1 if c == a else 0
            acc.append(run)
        cum[a] = acc
    imbalance = {}
    length = len(prefix)
    for n in range(1, max_n + 1):
        worst = 0
        for a in letters:
            acc = cum[a]
            vals = [acc[i + n] - acc[i] for i in range(length - n + 1)]
            worst = max(worst, max(vals) - min(vals))
        imbalance[n] = worst
    return BalanceProfile(
        max_n=max_n,
        imbalance=imbalance,
        order=max(imbalance.values()),
        prefix_length=length,
    )


def period_scan(prefix):
    """Least p such that the prefix is eventually p-periodic with preperiod
    <= len/4 and at least two full periods; None when no such p exists.

    A None result is a heuristic, not a proof of aperiodicity.
    """
    length = len(prefix)
    for p in range(1, length // 2 + 1):
        # Find the earliest index from which prefix[i] == prefix[i+p] holds.
        start = 0
        for i in range(length - p - 1, -1, -1):
            if prefix[i] != prefix[i + p]:
                start = i + 1
                break
        if start <= length // 4 and length - start >= 2 * p:
            return p
    return None


@dataclass(frozen=True)
class SturmianVerdict:
    """Refuted carries a witness; Consistent carries the covered window size.

    A finite prefix can refute the Sturmian property but never prove it.
    """

    consistent: bool
    witness: str | None = None
    coverage: int | None = None

    def to_json(self):
        if self.consistent:
            return {"verdict": "consistent", "coverage": self.coverage}
        return {"verdict": "refuted", "witness": self.witness}


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


@dataclass(frozen=True)
class WSEVerdict:
    """Per-erasure Sturmian verdicts for a ternary prefix."""

    consistent: bool
    per_erasure: dict
    witness: str | None = None

    def to_json(self):
        return {
            "verdict": "consistent" if self.consistent else "refuted",
            "witness": self.witness,
            "erasures": {i: v.to_json() for i, v in self.per_erasure.items()},
        }


def wse_verdict(prefix, max_n):
    """Erase each letter and test the Sturmian verdict of the projection."""
    check_word(prefix)
    per = {}
    witness = None
    for i in ALPHABET:
        erased = erase(prefix, i)
        if not erased:
            raise ValueError(f"erasing {i!r} leaves an empty prefix")
        n_cap = min(max_n, len(erased))
        verdict = sturmian_verdict(
            complexity(erased, n_cap), balance_order(erased, n_cap)
        )
        per[i] = verdict
        if not verdict.consistent and witness is None:
            witness = f"erasure {i}: {verdict.witness}"
    return WSEVerdict(
        consistent=all(v.consistent for v in per.values()),
        per_erasure=per,
        witness=witness,
    )
