"""Membership decision for the monoid of Sturmian morphisms on {0,1}.

The monoid St is generated by E (0<->1), phi (0->01, 1->0) and phit
(0->10, 1->0).  Membership is decided by peeling generators off the left
in a loop without backtracking: St is left unitary, so the first peel that
decodes a member leaves a member.  An accepted morphism comes with a
certificate (the factor sequence) whose recomposition equals the input
exactly.
"""

from __future__ import annotations

from functools import reduce

from .morphisms import E, ID2, PHI, PHIT, Morphism, compose
from .records import Record

__all__ = [
    "StCertificate",
    "StRejection",
    "st_membership",
    "recompose",
]

GENERATORS = {"E": E, "phi": PHI, "phit": PHIT}


class StCertificate(Record):
    """Ordered factor sequence over {"E", "phi", "phit"}; composing the
    factors left to right reproduces the decided morphism."""

    factors: tuple

    @property
    def degree(self):
        return sum(1 for name in self.factors if name != "E")

    def to_json(self):
        return list(self.factors)


class StRejection(Record):
    reason: str  # "erasing" | "determinant" | "no-decomposition"
    detail: str = ""

    def to_json(self):
        return {"rejected": self.reason, "detail": self.detail}


def _decode_phi(w):
    # Tokens 01 -> 0 and 0 -> 1.  A word is a product of them exactly when
    # every 1 follows a 0 that no other 1 claims: no leading 1 and no 11.
    if w[:1] == "1" or "11" in w:
        return None
    return w.replace("01", "x").replace("0", "1").replace("x", "0")


def _decode_phit(w):
    # Tokens 10 -> 0 and 0 -> 1, the mirror of phi: no trailing 1 and no 11.
    if w[-1:] == "1" or "11" in w:
        return None
    return w.replace("10", "x").replace("0", "1").replace("x", "0")


_DECODERS = {"phi": _decode_phi, "phit": _decode_phit}


_FLIP = str.maketrans("01", "10")


def _peel(im0, im1):
    """(factors, d0, d1) for the first of phi, phit, E.phi, E.phit whose
    decode succeeds on both images, or None."""
    for twist in ((), ("E",)):
        if twist:
            im0, im1 = im0.translate(_FLIP), im1.translate(_FLIP)
        for name, decoder in _DECODERS.items():
            d0 = decoder(im0)
            if d0 is not None:
                d1 = decoder(im1)
                if d1 is not None:
                    return twist + (name,), d0, d1
    return None


def st_membership(f):
    """StCertificate for members, StRejection otherwise.

    Peel order: phi, phit, then the same two under a left E-twist, and the
    first peel that decodes both images is taken; no other is ever tried.
    This loses no member: St is left unitary (X and X o g in St force g in
    St, Seebold 1991), and the images of phi and phit are codes, so a peel
    that decodes a member leaves the unique g with X o g = f, itself a
    member.  Starting from |det| = 1, every peel strictly shrinks the total
    image length (a length-preserving decode would need both images to be
    powers of 0, a determinant-0 shape), so the loop ends after at most that
    many peels, with no depth limit.
    """
    if not isinstance(f, Morphism) or f.domain != "01":
        raise ValueError("st_membership expects a morphism on the two-letter alphabet")
    im0, im1 = f.images["0"], f.images["1"]
    if "2" in im0 or "2" in im1:
        raise ValueError("st_membership expects images over the two-letter alphabet")
    if not im0 or not im1:
        return StRejection("erasing", "a generator product never erases a letter")
    # The incidence determinant #0(im0)*#1(im1) - #0(im1)*#1(im0), with
    # #1 = length - #0 on binary words.
    det = im0.count("0") * len(im1) - im1.count("0") * len(im0)
    if det not in (-1, 1):
        return StRejection("determinant", f"det={det}, members have det +-1")

    factors = []
    while (im0, im1) != ("0", "1"):
        if (im0, im1) == ("1", "0"):
            factors.append("E")
            break
        peel = _peel(im0, im1)
        if peel is None:
            return StRejection("no-decomposition", "no generator peeling reproduces the images")
        names, im0, im1 = peel
        factors += names
    return StCertificate(tuple(factors))


def recompose(cert):
    """Left-to-right composition of the certificate factors."""
    return reduce(compose, (GENERATORS[name] for name in cert.factors), ID2)
