"""Morphisms over {0,1,2} as letter-to-word maps: composition, incidence
matrices, determinants, and the nilpotent/permuting/expansive letter
classification."""

from __future__ import annotations

from . import _EXPORTS
from .records import Record


A2 = "01"
A3 = "012"

__all__ = _EXPORTS["morphisms"]


class Morphism:
    """Total map from a domain alphabet ("01" or "012") to words over {0,1,2}."""

    __slots__ = ("domain", "images")

    def __init__(self, images):
        domain = "".join(sorted(images))
        if domain not in (A2, A3):
            raise ValueError(f"morphism must define letters 01 or 012, got {domain!r}")
        for a, w in images.items():
            if w.strip(A3):
                raise ValueError(f"image of {a!r} contains letters outside 012: {w!r}")
        self.domain = domain
        self.images = {a: images[a] for a in domain}

    def __call__(self, w):
        return apply(self, w)

    def image_letters(self):
        return set("".join(self.images.values()))

    def __mul__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return compose(self, other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ID2 if self.domain == A2 else ID3
        for _ in range(n):
            out = compose(self, out)
        return out

    # Equality is extensional: same domain, same image per letter.
    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.domain == other.domain and self.images == other.images

    def __hash__(self):
        return hash((self.domain, tuple(self.images.items())))

    def __repr__(self):
        return f"Morphism({format_morphism(self)!r})"


def apply(f, w):
    """Concatenation of the images of the letters of w; apply(f, "") == ""."""
    images = f.images
    try:
        return "".join(images[a] for a in w)
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} outside domain {f.domain!r}") from None


def compose(g, f):
    """(g o f)(a) = g(f(a)); requires the image letters of f inside g's domain."""
    extra = f.image_letters() - set(g.domain)
    if extra:
        raise ValueError(
            f"image letters {sorted(extra)} of the inner morphism fall outside "
            f"the outer domain {g.domain!r}"
        )
    return Morphism({a: apply(g, w) for a, w in f.images.items()})


def parse_morphism(text):
    """Parse the text format `0=02,1=10,2=` (empty images allowed); Morphism
    checks the domain and the image letters."""
    images = {}
    for entry in text.split(","):
        entry = entry.strip()
        if "=" not in entry:
            raise ValueError(f"bad morphism entry {entry!r}: expected letter=image")
        letter, image = entry.split("=", 1)
        letter = letter.strip()
        image = image.strip()
        if letter not in A3 or len(letter) != 1:
            raise ValueError(f"bad morphism letter {letter!r}")
        if letter in images:
            raise ValueError(f"duplicate letter {letter!r} in morphism spec")
        images[letter] = image
    return Morphism(images)


def format_morphism(f):
    return ",".join(f"{a}={f.images[a]}" for a in f.domain)


class IncidenceMatrix(Record):
    """Occurrence-count matrix: rows[i][j] counts row_letters[i] in f(col_letters[j])."""

    rows: tuple
    row_letters: str
    col_letters: str


def incidence(f):
    letters = set(f.domain) | f.image_letters()
    rows_alphabet = A2 if letters <= set(A2) else A3
    rows = tuple(
        tuple(f.images[a].count(i) for a in f.domain) for i in rows_alphabet
    )
    return IncidenceMatrix(rows, rows_alphabet, f.domain)


def determinant(m):
    """Exact determinant of a 2x2 or 3x3 incidence matrix."""
    r = m.rows
    n = len(r)
    if n != len(m.col_letters):
        raise ValueError(f"non-square matrix: {len(m.row_letters)}x{len(m.col_letters)}")
    if n == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    if n == 3:
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )
    raise ValueError(f"unsupported matrix size {n}")


class LetterClassification(Record):
    """Partition of the domain into nilpotent / permuting / expansive letters.

    permuting_core holds the letters whose nilpotent-reduced orbit returns to
    the letter itself; it is a subset of permuting.  witness maps each
    non-expansive letter a to an exponent n >= 1:
    - nilpotent a: the least n with f^n(a) empty;
    - core a: the least n with f^n(a), nilpotent letters deleted, equal to a;
    - other permuting a: the least n such that every letter of f^n(a) is
      nilpotent or core and at least one is core.
    """

    nilpotent: frozenset
    permuting_core: frozenset
    permuting: frozenset
    expansive: frozenset
    witness: dict


def _letter_orbit(f, letters):
    """The letter sets of f^n(letters) for n = 0 .. 2^|A| + |A|.  Each set
    depends only on the one before it and the domain A has 2^|A| subsets,
    so every set of the orbit appears here."""
    orbit = [frozenset(letters)]
    try:
        for _ in range(2 ** len(f.domain) + len(f.domain)):
            orbit.append(frozenset("".join(map(f.images.__getitem__, orbit[-1]))))
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} outside domain {f.domain!r}") from None
    return orbit


def classify_letters(f):
    alphabet = f.domain
    orbits = {a: _letter_orbit(f, a) for a in alphabet}

    # Nilpotent letters: the empty set absorbs, so it ends the orbit once hit.
    empty = frozenset()
    witness = {a: orbit.index(empty) for a, orbit in orbits.items() if orbit[-1] == empty}
    nilpotent = set(witness)

    def reduce(w):
        return "".join(c for c in w if c not in nilpotent)

    # Core letters: the reduced single-letter orbit returns to the start.
    # Once a reduced image has length >= 2 it can never shrink back (reduced
    # images of surviving letters are nonempty), so only single-letter chains
    # can cycle.
    core = set()
    for a in alphabet:
        if a in nilpotent:
            continue
        cur, steps = a, 0
        while steps <= len(alphabet):
            cur = reduce(f.images[cur])
            steps += 1
            if len(cur) != 1:
                break
            if cur == a:
                core.add(a)
                witness[a] = steps
                break

    # Permuting letters: some iterate lands in (N u P')* \ N*.  The orbit of
    # a nilpotent letter stays inside N, so it never meets the core.
    good = nilpotent | core
    for a, orbit in orbits.items():
        for n, seen in enumerate(orbit):
            if seen <= good and seen & core:
                witness.setdefault(a, n)
                break
    permuting = set(witness) - nilpotent

    return LetterClassification(
        nilpotent=frozenset(nilpotent),
        permuting_core=frozenset(core),
        permuting=frozenset(permuting),
        expansive=frozenset(alphabet) - nilpotent - permuting,
        witness=witness,
    )


def is_unit(f):
    """Neither nilpotent (some power erases every letter) nor expansive."""
    c = classify_letters(f)
    return len(c.nilpotent) < len(f.domain) and not c.expansive


E = Morphism({"0": "1", "1": "0"})
PHI = Morphism({"0": "01", "1": "0"})
PHIT = Morphism({"0": "10", "1": "0"})
ID2 = Morphism({"0": "0", "1": "1"})
ID3 = Morphism({"0": "0", "1": "1", "2": "2"})
E0 = Morphism({"0": "0", "1": "2", "2": "1"})
E1 = Morphism({"0": "2", "1": "1", "2": "0"})
E2 = Morphism({"0": "1", "1": "0", "2": "2"})
PHI1 = Morphism({"0": "01", "1": "0", "2": ""})
PHIT1 = Morphism({"0": "10", "1": "0", "2": ""})
PI2 = Morphism({"0": "0", "1": "1", "2": ""})
