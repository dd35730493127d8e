"""Membership decision for the monoid of Sturmian morphisms on {0,1}.

The monoid is generated by E (0<->1), phi (0->01, 1->0) and phit (0->10,
1->0).  Membership is decided by peeling generators off the left with
backtracking; an accepted morphism comes with a certificate (the factor
sequence) whose recomposition equals the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .morphisms import E, ID2, PHI, PHIT, Morphism, compose, determinant, incidence

__all__ = [
    "StCertificate",
    "StRejection",
    "decode_over_code",
    "st_membership",
    "recompose",
]

GENERATORS = {"E": E, "phi": PHI, "phit": PHIT}


@dataclass(frozen=True)
class StCertificate:
    """Ordered factor sequence over {"E", "phi", "phit"}; composing the
    factors left to right reproduces the decided morphism."""

    factors: tuple

    @property
    def degree(self):
        return sum(1 for name in self.factors if name != "E")

    def to_json(self):
        return list(self.factors)


@dataclass(frozen=True)
class StRejection:
    reason: str  # "erasing" | "determinant" | "no-decomposition"
    detail: str = ""

    def to_json(self):
        return {"rejected": self.reason, "detail": self.detail}


def _decode_phi(w):
    # Tokens 01 -> 0 and 0 -> 1.  "0" is a prefix of "01", but no token
    # starts with "1", so one-symbol lookahead decides every boundary.
    out = []
    i = 0
    while i < len(w):
        if w[i] == "1":
            return None
        if i + 1 < len(w) and w[i + 1] == "1":
            out.append("0")
            i += 2
        else:
            out.append("1")
            i += 1
    return "".join(out)


def _decode_phit(w):
    # Tokens 10 -> 0 and 0 -> 1 form a prefix code; greedy decode is exact.
    out = []
    i = 0
    while i < len(w):
        if w[i] == "0":
            out.append("1")
            i += 1
        elif w[i] == "1" and i + 1 < len(w) and w[i + 1] == "0":
            out.append("0")
            i += 2
        else:
            return None
    return "".join(out)


_DECODERS = {"phi": _decode_phi, "phit": _decode_phit}


def decode_over_code(w, code):
    """Decode w over the image code of phi or phit; None when undecodable."""
    if code not in _DECODERS:
        raise ValueError(f"code must be 'phi' or 'phit', got {code!r}")
    return _DECODERS[code](w)


_FLIP = str.maketrans("01", "10")


def st_membership(f):
    """StCertificate for members, StRejection otherwise.

    Peel order: phi, phit, then the same two under a left E-twist.  Starting
    from |det| = 1, a successful peel always strictly shrinks the total image
    length (a length-preserving decode would need both images to be powers of
    0, a determinant-0 shape that cannot arise), so the search terminates and
    failures can be memoized without cycle bookkeeping.
    """
    if not isinstance(f, Morphism) or f.domain != "01":
        raise ValueError("st_membership expects a morphism on the two-letter alphabet")
    if f.image_letters() - set("01"):
        raise ValueError("st_membership expects images over the two-letter alphabet")
    if any(w == "" for w in f.images.values()):
        return StRejection("erasing", "a generator product never erases a letter")
    det = determinant(incidence(f))
    if det not in (-1, 1):
        return StRejection("determinant", f"det={det}, members have det +-1")

    failed = set()

    def search(im0, im1):
        if im0 == "0" and im1 == "1":
            return ()
        if im0 == "1" and im1 == "0":
            return ("E",)
        key = (im0, im1)
        if key in failed:
            return None
        for prefix_names, a0, a1 in (
            ((), im0, im1),
            (("E",), im0.translate(_FLIP), im1.translate(_FLIP)),
        ):
            for name, decoder in _DECODERS.items():
                d0 = decoder(a0)
                if d0 is None:
                    continue
                d1 = decoder(a1)
                if d1 is None:
                    continue
                sub = search(d0, d1)
                if sub is not None:
                    return prefix_names + (name,) + sub
        failed.add(key)
        return None

    factors = search(f.images["0"], f.images["1"])
    if factors is None:
        return StRejection("no-decomposition", "no generator peeling reproduces the images")
    return StCertificate(factors)


def recompose(cert):
    """Left-to-right composition of the certificate factors."""
    return reduce(compose, (GENERATORS[name] for name in cert.factors), ID2)
