import itertools
import json
import random

import pytest

from sturmian_erasures import (
    Morphism,
    StCertificate,
    StRejection,
    apply,
    balance_order,
    complexity,
    compose,
    determinant,
    incidence,
    recompose,
    st_membership,
    sturmian_verdict,
)
from sturmian_erasures.cli import run
from sturmian_erasures.monoid import GENERATORS, _peel
from sturmian_erasures.morphisms import E, ID2, PHI, PHIT

from conftest import fib_prefix, perturbed_st_corpus, random_st_member


def test_peel_examples():
    assert _peel("010", "01") == (("phi",), "01", "0")
    assert _peel("100", "10") == (("phit",), "01", "0")
    assert _peel("10", "1") == (("E", "phi"), "0", "1")
    assert _peel("01", "1") == (("E", "phit"), "0", "1")
    assert _peel("1101", "10") == (("E", "phi"), "101", "0")
    assert _peel("1011", "01") == (("E", "phit"), "101", "0")
    assert _peel("", "") == (("phi",), "", "")
    assert _peel("11", "00") is None
    assert _peel("0110", "0") is None


def test_peel_round_trip():
    """A peel off X o g gives back g when X is the first generator that
    decodes; any peel it takes recomposes to the images it was given."""
    rng = random.Random(37)
    for names in (("phi",), ("phit",), ("E", "phi"), ("E", "phit")):
        x = recompose(StCertificate(names))
        for _ in range(200):
            g = ["".join(rng.choice("01") for _ in range(rng.randrange(30))) for _ in "01"]
            images = [apply(x, w) for w in g]
            peeled, d0, d1 = _peel(*images)
            y = recompose(StCertificate(peeled))
            assert [apply(y, d0), apply(y, d1)] == images
            if peeled == names:
                assert [d0, d1] == g


def test_membership_examples():
    assert st_membership(PHI) == StCertificate(("phi",))
    assert st_membership(E) == StCertificate(("E",))
    assert st_membership(ID2) == StCertificate(())

    squared = st_membership(Morphism({"0": "010", "1": "01"}))
    assert isinstance(squared, StCertificate)
    assert recompose(squared) == PHI * PHI

    relation = st_membership(Morphism({"0": "010", "1": "0"}))
    assert isinstance(relation, StCertificate)
    assert relation.degree == 2
    assert recompose(relation) == compose(PHI, compose(E, PHIT))
    assert recompose(relation) == compose(PHIT, compose(E, PHI))


def test_membership_rejections():
    out = st_membership(Morphism({"0": "0", "1": "0"}))
    assert out == StRejection("determinant", "det=0, members have det +-1")
    assert not getattr(out, "accepted", False)

    erasing = st_membership(Morphism({"0": "01", "1": ""}))
    assert isinstance(erasing, StRejection)
    assert erasing.reason == "erasing"

    stuck = st_membership(Morphism({"0": "0110", "1": "0"}))
    assert isinstance(stuck, StRejection)
    assert stuck.reason in ("determinant", "no-decomposition")


def test_membership_input_validation():
    with pytest.raises(ValueError):
        st_membership(Morphism({"0": "0", "1": "1", "2": "2"}))
    with pytest.raises(ValueError):
        st_membership(Morphism({"0": "02", "1": "1"}))


def test_exhaustive_ball_sound_and_complete():
    """Every distinct product of <= 10 generators is accepted and the
    certificate recomposes to it; all members have determinant +-1."""
    frontier = {("0", "1"): ID2}
    ball = dict(frontier)
    for _ in range(10):
        nxt = {}
        for key, m in frontier.items():
            for gen in (E, PHI, PHIT):
                out = compose(m, gen)
                k = (out.images["0"], out.images["1"])
                if k not in ball and k not in nxt:
                    nxt[k] = out
        ball.update(nxt)
        frontier = nxt
    assert len(ball) > 10_000
    for m in ball.values():
        cert = st_membership(m)
        assert isinstance(cert, StCertificate)
        assert recompose(cert) == m
        assert determinant(incidence(m)) in (-1, 1)


def test_random_long_products():
    rng = random.Random(41)
    for _ in range(1000):
        m = random_st_member(rng, max_factors=10)
        cert = st_membership(m)
        assert isinstance(cert, StCertificate)
        assert recompose(cert) == m


def test_rejections_are_justified():
    """Every rejection reason is backed by checkable evidence; for
    no-decomposition the image of a Sturmian word must itself fail the
    Sturmian tests (a member of the monoid would preserve them)."""
    F = fib_prefix(10_000)
    for f, rejection in perturbed_st_corpus(100):
        if rejection.reason == "erasing":
            assert any(w == "" for w in f.images.values())
        elif rejection.reason == "determinant":
            assert determinant(incidence(f)) not in (-1, 1)
        else:
            assert rejection.reason == "no-decomposition"
            w = apply(f, F)[:10_000]
            verdict = sturmian_verdict(complexity(w, 30), balance_order(w, 30))
            assert not verdict.consistent


def test_certificate_json(capsys):
    cert = st_membership(Morphism({"0": "010", "1": "0"}))
    assert run(["st", "decompose", "--spec", "0=010,1=0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == list(cert.factors)
    assert GENERATORS.keys() == {"E", "phi", "phit"}


# -- references: the char-by-char decoders and the recursive backtracking
# search that st_membership replaced, kept to pin its verdicts --------------


def _ref_decode_phi(w):
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


def _ref_decode_phit(w):
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


_REF_DECODERS = {"phi": _ref_decode_phi, "phit": _ref_decode_phit}
_FLIP = str.maketrans("01", "10")


def _ref_st_membership(f):
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
            for name, decoder in _REF_DECODERS.items():
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


def _binary_words(max_len):
    for n in range(max_len + 1):
        for letters in itertools.product("01", repeat=n):
            yield "".join(letters)


def _ref_peel(im0, im1):
    """The four-decoder peel: phi, phit, then both on the flipped images."""
    for twist in ((), ("E",)):
        if twist:
            im0, im1 = im0.translate(_FLIP), im1.translate(_FLIP)
        for name, decoder in _REF_DECODERS.items():
            d0, d1 = decoder(im0), decoder(im1)
            if d0 is not None and d1 is not None:
                return twist + (name,), d0, d1
    return None


def test_peel_matches_four_decoder_reference():
    """The generator read off the images, and its decode, equal those of the
    first of the four char-by-char decoders that takes both images, on every
    pair of binary words (empty ones too) of total length <= 12."""
    words = list(_binary_words(12))
    count = 0
    for im0 in words:
        for im1 in words:
            if len(im0) + len(im1) > 12:
                break
            assert _peel(im0, im1) == _ref_peel(im0, im1), (im0, im1)
            count += 1
    assert count == 98_305


def test_deterministic_peel_matches_backtracking_search():
    """Every binary morphism with total image length <= 12 gets the same
    certificate or the same rejection (reason and detail) from the loop as
    from the backtracking search."""
    words = list(_binary_words(12))
    count = 0
    for im0 in words:
        for im1 in words:
            if len(im0) + len(im1) > 12:
                break
            f = Morphism({"0": im0, "1": im1})
            assert st_membership(f) == _ref_st_membership(f), (im0, im1)
            count += 1
    assert count == 98_305


@pytest.mark.parametrize("k", [1500, 5000])
@pytest.mark.parametrize("mirror", [False, True])
def test_deep_chains_are_accepted(k, mirror):
    """0=0,1=0^k1 and 0=0,1=10^k are members with 2k factors, far past the
    depth at which a recursive peel hits the interpreter's recursion limit."""
    f = Morphism({"0": "0", "1": "1" + "0" * k if mirror else "0" * k + "1"})
    cert = st_membership(f)
    assert isinstance(cert, StCertificate)
    assert len(cert.factors) == 2 * k
    assert recompose(cert) == f
