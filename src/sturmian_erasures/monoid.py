"""Membership decision for the monoid of Sturmian morphisms on {0,1}.

The monoid St is generated by E (0<->1), phi (0->01, 1->0) and phit
(0->10, 1->0).  Membership is decided by peeling generators off the left
in a loop without backtracking: St is left unitary, so the first peel that
decodes a member leaves a member.  The generator is read off the images'
end letters and whether 11 or 00 occurs.  Each E-twisted decode is one
replace, 10 -> 0 under E.phi (0 -> 10, 1 -> 1) and 01 -> 0 under E.phit:
in a word over those blocks each 0 ends or starts exactly one of them
(st_membership has the proof).  An accepted morphism comes with a
certificate (the factor sequence) that recomposes to the input exactly.
"""

from __future__ import annotations

from functools import reduce

from . import _EXPORTS
from .morphisms import E, ID2, PHI, PHIT, Morphism, compose
from .records import Record

__all__ = _EXPORTS["monoid"]

GENERATORS = {"E": E, "phi": PHI, "phit": PHIT}


class StCertificate(Record):
    """Ordered factor sequence over {"E", "phi", "phit"}; composing the
    factors left to right reproduces the decided morphism."""

    factors: tuple

    @property
    def degree(self):
        return sum(1 for name in self.factors if name != "E")


class StRejection(Record):
    reason: str  # "erasing" | "determinant" | "no-decomposition"
    detail: str = ""


def _undo(w, block):
    # block -> 0 and every other 0 -> 1: phi's decode for 01, phit's for 10.
    return w.replace(block, "x").replace("0", "1").replace("x", "0")


def _peel(im0, im1):
    """(factors, d0, d1) for the first of phi, phit, E.phi, E.phit that
    decodes both images, or None; st_membership proves the tests."""
    heads, tails = im0[:1] + im1[:1], im0[-1:] + im1[-1:]
    if "11" not in im0 and "11" not in im1:
        if "1" not in heads:
            return ("phi",), _undo(im0, "01"), _undo(im1, "01")
        if "1" not in tails:
            return ("phit",), _undo(im0, "10"), _undo(im1, "10")
    if "00" not in im0 and "00" not in im1:
        if "0" not in heads:
            return ("E", "phi"), im0.replace("10", "0"), im1.replace("10", "0")
        if "0" not in tails:
            return ("E", "phit"), im0.replace("01", "0"), im1.replace("01", "0")
    return None


def _decide(im0, im1):
    """The verdict on the binary images im0, im1 (see st_membership)."""
    if not im0 or not im1:
        return StRejection("erasing", "a generator product never erases a letter")
    # The incidence determinant #0(im0)*#1(im1) - #0(im1)*#1(im0), with
    # #1 = length - #0 on binary words.
    det = im0.count("0") * len(im1) - im1.count("0") * len(im0)
    if det not in (-1, 1):
        return StRejection("determinant", f"det={det}, members have det +-1")
    factors = []
    while im0 != "0" or im1 != "1":
        if im0 == "1" and im1 == "0":
            factors.append("E")
            break
        peel = _peel(im0, im1)
        if peel is None:
            return StRejection("no-decomposition", "no generator peeling reproduces the images")
        names, im0, im1 = peel
        factors += names
    return StCertificate(tuple(factors))


def st_membership(f):
    """StCertificate for members, StRejection otherwise.

    Peel order: phi, phit, then the same two under a left E-twist, and the
    first peel that decodes both images is taken; no other is ever tried.
    This loses no member: St is left unitary (X and X o g in St force g in
    St, Seebold 1991), and the images of phi and phit are codes, so a peel
    that decodes a member leaves the unique g with X o g = f, itself a
    member.  A word parses over phi's blocks 01, 0 exactly when no 1 leads
    and no 11 occurs, and over phit's 10, 0 when no 1 trails and no 11
    occurs, so the end letters pick the peel.  Each E-twisted decode is one
    replace: a word parses over E.phi's blocks 10, 1 exactly when no 0 leads
    and no 00 occurs, and then each 0 ends exactly one 10 and no two 10s
    overlap, so replacing every 10 by 0 undoes the blocks; E.phit (blocks
    01, 1) is the mirror, undone by replacing every 01 by 0.  With |det| = 1
    every peel strictly shrinks the total image length (a length-keeping
    decode needs both images to be powers of one letter, a determinant-0
    shape), so the loop ends after at most that many peels, no depth limit.
    """
    if not isinstance(f, Morphism) or f.domain != "01":
        raise ValueError("st_membership expects a morphism on the two-letter alphabet")
    im0, im1 = f.images["0"], f.images["1"]
    if "2" in im0 or "2" in im1:
        raise ValueError("st_membership expects images over the two-letter alphabet")
    return _decide(im0, im1)


def recompose(cert):
    """Left-to-right composition of the certificate factors."""
    return reduce(compose, (GENERATORS[name] for name in cert.factors), ID2)
