"""Membership decision for the monoid of Sturmian morphisms on {0,1}.

The monoid St is generated by E (0<->1), phi (0->01, 1->0) and phit
(0->10, 1->0).  Membership is decided by peeling generators off the left
in one loop, without backtracking, over the joint word ".im0.im1.": each
peel test is one `in`, each decode one or two passes, and a run of equal
E-twisted peels one replace, so the deep chain 0=0,1=0^k1 takes a few
linear passes (about 6 ms at k = 10^5, Python 3.11).  A member gets a
certificate (the factor sequence) that recomposes to the input exactly.
"""

from __future__ import annotations

from . import _EXPORTS
from .morphisms import E, PHI, PHIT, Morphism
from .records import Record

__all__ = _EXPORTS["monoid"]

GENERATORS = {"E": E, "phi": PHI, "phit": PHIT}

_FLIP = str.maketrans("01", "10")


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


def _decide(im0, im1):
    """The verdict on the binary images im0, im1 (see st_membership)."""
    if not im0 or not im1:
        return StRejection("erasing", "a generator product never erases a letter")
    # The incidence determinant #0(im0)*#1(im1) - #0(im1)*#1(im0), with
    # #1 = length - #0 on binary words.
    det = im0.count("0") * len(im1) - im1.count("0") * len(im0)
    if det not in (-1, 1):
        return StRejection("determinant", f"det={det}, members have det +-1")
    w = f".{im0}.{im1}."
    factors = []
    while w != ".0.1.":
        if w == ".1.0.":
            factors.append("E")
            break
        if "11" not in w and ".1" not in w:
            factors.append("phi")
            w = w.translate(_FLIP).replace("10", "0")
        elif "11" not in w and "1." not in w:
            factors.append("phit")
            w = w.translate(_FLIP).replace("01", "0")
        elif "00" not in w and ".0" not in w:
            # r: the shortest run of 1s right before a 0.
            r = min(len(s.rpartition(".")[2]) for s in w.split("0")[:-1]) if "110" in w else 1
            factors += ("E", "phi") * r
            w = w.replace("1" * r + "0", "0")
        elif "00" not in w and "0." not in w:
            # r: the shortest run of 1s right after a 0.
            r = min(len(s.partition(".")[0]) for s in w.split("0")[1:]) if "011" in w else 1
            factors += ("E", "phit") * r
            w = w.replace("0" + "1" * r, "0")
        else:
            return StRejection("no-decomposition", "no generator peeling reproduces the images")
    return StCertificate(tuple(factors))


def st_membership(f):
    """StCertificate for members, StRejection otherwise.

    Peel order: phi, phit, E.phi, E.phit; the first that decodes both
    images is taken and no other is ever tried.  This loses no member: St
    is left unitary (X and X o g in St force g in St, Seebold 1991), and
    the images of phi and phit are codes, so a peel that decodes a member
    leaves the unique g with X o g = f, itself a member.  A word parses
    over E.phi's blocks 10, 1 exactly when no 0 leads and no 00 occurs;
    then each 0 ends one 10 and no two overlap, so 10 -> 0 decodes it.
    E.phit (blocks 01, 1, no 0 trails) mirrors it with 01 -> 0, and phi
    and phit are the two after a flip: no 1 leads (trails), no 11 occurs.
    With |det| = 1 each peel shrinks the images (a length-keeping decode
    needs two powers of one letter, of det 0), so the loop ends.

    When E.phi is taken, every 0 has a run of 1s right before it; let r be
    the shortest.  A decode removes one 1 from each such run and nothing
    else, so r decodes are one replace of 1^r 0 by 0 (each match ends at
    its own 0).  After j < r of them no 00 and no leading 0 occur, so E.phi
    decodes, phi does not (both images lead with 1), no end test holds and
    phit would need no 11 and no final 1: j = r - 1 and both images powers
    of 1^r 0, of determinant 0, while each peel keeps |det| = 1.  After r
    decodes some 0 follows no 1, so the single-peel order takes exactly
    this run.  E.phit mirrors it with the runs right after each 0: leading
    letters never change, so E.phi stays excluded, phit fails on the final
    1s, and phi needs powers of 0 1^r.
    """
    if not isinstance(f, Morphism) or f.domain != "01":
        raise ValueError("st_membership expects a morphism on the two-letter alphabet")
    im0, im1 = f.images["0"], f.images["1"]
    if "2" in im0 or "2" in im1:
        raise ValueError("st_membership expects images over the two-letter alphabet")
    return _decide(im0, im1)


def recompose(cert):
    """Left-to-right composition of the certificate factors, in time linear
    in the images.  The image pair (a, b) of the product so far is
    multiplied on the right by each factor: E gives (b, a), phi (ab, a) and
    phit (ba, a).  E.phi gives (ba, b) and E.phit (ab, b), both keeping b,
    so a block of l E.phi and r E.phit pairs in any order gives
    (b^l a b^r, b) in one step."""
    names, a, b, i = cert.factors, "0", "1", 0
    while i < len(names):
        ends = dict.fromkeys(("phi", "phit"), 0)
        while names[i : i + 2] in (("E", "phi"), ("E", "phit")):
            ends[names[i + 1]] += 1
            i += 2
        if any(ends.values()):
            a = b * ends["phi"] + a + b * ends["phit"]
        else:
            pair = {"0": a, "1": b}
            a, b = ("".join(map(pair.get, w)) for w in GENERATORS[names[i]].images.values())
            i += 1
    return Morphism({"0": a, "1": b})
