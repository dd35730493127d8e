"""Erasure-aware analysis of ternary morphisms.

A ternary morphism maps every word with Sturmian erasures to another one
exactly when it is a permutation of {0,1,2} or it erases some letter i and,
for every j, the recoded two-letter morphism obtained by erasing j from the
images is a Sturmian morphism.  The latter test is exact: erasing j from any
image word factors through the erased-i restriction, so all three recoded
projections must map Sturmian words to Sturmian words, and conversely three
Sturmian projections force every image word back into the erasure class.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from . import _EXPORTS
from .monoid import StRejection, _decide
from .morphisms import A3, Morphism
from .records import Record

__all__ = _EXPORTS["mse"]


class MSEVerdict(Record):
    """One of permutation / erasing-member / rejected.

    An erasing member records the erased letter and, for each erased
    projection letter j, the certificate of the recoded two-letter morphism.
    """

    kind: str
    erased: str | None = None
    certificates: dict | None = None
    reason: str | None = None
    witness: str | None = None

    @property
    def accepted(self):
        return self.kind != "rejected"


# Per erased letter j: delete j, recode the other two letters in order to 0, 1.
_RECODE = {j: str.maketrans(A3.replace(j, ""), "01", j) for j in A3}


def _length_witness(i, others, u, v):
    """Necessary conditions for an erasing member: None on pass, else a witness.

    With u, v the images of the letters in `others` (all but the erased i),
    each of u, v must have length >= 2 and contain at least one letter of
    `others`, and each letter of `others` must occur in uv.
    """
    for a, image in zip(others, (u, v)):
        if len(image) < 2:
            return f"|f({a})| = {len(image)} < 2"
        if image.count(i) == len(image):
            return f"f({a}) = {image!r} has no surviving letter"
    for a in others:
        if a not in u and a not in v:
            return f"letter {a} never occurs in the images"
    return None


def mse_membership(f):
    """Decide membership among erasure-preserving ternary morphisms.

    A morphism erasing a letter i meets the length conditions first; only
    one that passes them gets the three projected St decisions.
    """
    if not isinstance(f, Morphism) or f.domain != A3:
        raise ValueError("mse_membership expects a morphism on 012")
    if sorted(f.images.values()) == ["0", "1", "2"]:
        return MSEVerdict(kind="permutation")
    erased = [i for i in A3 if f.images[i] == ""]
    if not erased:
        return MSEVerdict(
            kind="rejected",
            reason="not-permutation-no-erased-letter",
            witness="members either permute 012 or erase a letter",
        )
    i = erased[0]
    others = A3.replace(i, "")
    u, v = (f.images[a] for a in others)
    witness = _length_witness(i, others, u, v)
    if witness is not None:
        return MSEVerdict(kind="rejected", reason="length-filter", witness=witness)
    certificates = {}
    # The projection erasing j: u and v with j deleted, recoded to 01.
    for j, table in _RECODE.items():
        outcome = _decide(u.translate(table), v.translate(table))
        if isinstance(outcome, StRejection):
            return MSEVerdict(
                kind="rejected",
                reason=f"projection-{j}-not-sturmian",
                witness=f"{outcome.reason}: {outcome.detail}",
            )
        certificates[j] = outcome
    return MSEVerdict(kind="erasing-member", erased=i, certificates=certificates)


def intercalate(u, v, w):
    """The unique ternary word with erasures u (no 2), v (no 1), w (no 0),
    or None when the three words are not compatible.

    The 1s of u and of w are the 1s of the word, so they split it into
    blocks; block i holds the 0s of the i-th block of u and the 2s of the
    i-th block of w, in the order the next slice of v gives; erasing the 2s
    gives back u exactly when every slice holds the right number of 0s.
    """
    zeros, twos = u.count("0"), w.count("2")
    if (zeros + u.count("1") != len(u) or v.count("0") + v.count("2") != len(v)
            or w.count("1") + twos != len(w)):
        raise ValueError("intercalate expects words over 01, 02 and 12")
    us, ws = u.split("1"), w.split("1")
    if len(us) != len(ws) or len(v) != zeros + twos:
        return None
    bounds = list(accumulate(map(add, map(len, us), map(len, ws)), initial=0))
    x = "1".join([v[start:end] for start, end in zip(bounds, bounds[1:])])
    return x if x.replace("2", "") == u else None


class PsiFamily(Record):
    """The n-th member of the psi family together with its three
    components, its erasures: f erases 2, g erases 1 and h erases 0."""

    n: int
    psi: Morphism
    f: Morphism
    g: Morphism
    h: Morphism


def psi(n):
    """Construct psi_n from its images of 0 and 1: (01, 20) at n = 1, (2010, 01)
    at n = 2, then (aba, psi_(n-1)(0)) with (a, b) those of psi_(n-2), keeping
    two generations; and its components by erasing 2, 1 and 0 from them.
    They are the generator products phi1^n, E0 phit1 E2 phit1^(n-1) and
    E2 E0 phit1^(n-1), each with 2 then erased; the tests check this for
    n <= 12.  primality calls every psi_n prime-certified, yet psi_1 is
    (0=01,1=,2=20) o (0=01,1=12,2=), a product of two erasing members."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("psi is defined for n >= 1")
    older, old = ("01", "20"), ("2010", "01")
    for _ in range(n - 2):
        older, old = old, (older[0] + older[1] + older[0], old[0])
    a, b = old if n > 1 else older
    images = {"0": a, "1": b, "2": ""}
    f, g, h = (Morphism({a: w.replace(x, "") for a, w in images.items()}) for x in "210")
    return PsiFamily(n=n, psi=Morphism(images), f=f, g=g, h=h)


class PrimalityVerdict(Record):
    """prime-certified / composite-certified / unknown."""

    kind: str
    note: str = ""
    g_factor: Morphism | None = None
    h_factor: Morphism | None = None


def _prefix_or_suffix(a, b):
    return b.startswith(a) or b.endswith(a)


def primality(f):
    """Prime/composite verdicts for erasing members.

    A member whose two surviving images are unrelated by prefix or suffix is
    called prime-certified.  That is a rule, not a proof: psi_1 =
    (0=01,1=,2=20) o (0=01,1=12,2=) meets it, and both factors are erasing
    members with an expansive letter.  When a relation exists and the
    letter counts of f(012) satisfy count(j) > count(k) >= count(i),
    splitting the longer image certifies a composite; anything else stays
    unknown.
    """
    verdict = mse_membership(f)
    if verdict.kind == "permutation":
        return PrimalityVerdict(
            kind="unknown", note="permutations are units, primality does not apply"
        )
    if verdict.kind == "rejected":
        raise ValueError(f"not an erasing member: {verdict.reason}")
    i = verdict.erased
    others = [a for a in A3 if a != i]
    fj, fk = (f.images[a] for a in others)
    if not _prefix_or_suffix(fj, fk) and not _prefix_or_suffix(fk, fj):
        return PrimalityVerdict(
            kind="prime-certified",
            note=(
                f"f({others[0]}) and f({others[1]}) are not prefixes or "
                "suffixes of one another"
            ),
        )
    total = f.images["0"] + f.images["1"] + f.images["2"]
    counts = {a: total.count(a) for a in A3}
    j, k = sorted(others, key=lambda a: counts[a], reverse=True)
    if not (counts[j] > counts[k] >= counts[i]):
        return PrimalityVerdict(
            kind="unknown",
            note=(
                "images overlap but the letter counts "
                f"{counts} do not meet the splitting condition"
            ),
        )
    fj, fk = f.images[j], f.images[k]
    if fj.startswith(fk):
        u, v = fk, fj[len(fk):]
        h_images = {j: j + k, k: j + i, i: ""}
    elif fj.endswith(fk):
        u, v = fk, fj[: len(fj) - len(fk)]
        h_images = {j: k + j, k: i + j, i: ""}
    else:
        return PrimalityVerdict(
            kind="unknown", note="the shorter image is not on the splitting side"
        )
    # By construction g(h(j)) = u*v or v*u = f(j), g(h(k)) = u = f(k) and
    # g(h(i)) = "" = f(i), so g o h = f.  And h maps j to jk or kj, k to ji or
    # ij, and erases i: the iterates of j and k grow, so
    # classify_letters(h).expansive == {j, k} and is_unit(h) is false.
    g_factor = Morphism({j: u, k: v, i: ""})
    h_factor = Morphism(h_images)
    if not mse_membership(g_factor).accepted or not mse_membership(h_factor).accepted:
        return PrimalityVerdict(kind="unknown", note="split factors left the monoid")
    return PrimalityVerdict(
        kind="composite-certified", g_factor=g_factor, h_factor=h_factor
    )
