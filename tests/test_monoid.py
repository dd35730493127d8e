import itertools
import json
import random
import time
from functools import reduce

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
from sturmian_erasures.monoid import GENERATORS, _decide
from sturmian_erasures.morphisms import E, ID2, PHI, PHIT

from conftest import fib_prefix, perturbed_st_corpus, random_st_member


def test_peel_examples():
    """The first peel of _decide, read off the certificate: a member's
    certificate is that peel followed by the decoded pair's certificate.
    A pair of determinant other than +-1 is rejected before any peel."""
    assert _decide("010", "01") == StCertificate(("phi",) + _decide("01", "0").factors)
    assert _decide("100", "10") == StCertificate(("phit",) + _decide("01", "0").factors)
    assert _decide("10", "1") == StCertificate(("E", "phi"))
    assert _decide("01", "1") == StCertificate(("E", "phit"))
    assert _decide("1101", "10") == StRejection("determinant", "det=-2, members have det +-1")
    assert _decide("1011", "01") == StRejection("determinant", "det=-2, members have det +-1")
    assert _decide("", "") == StRejection("erasing", "a generator product never erases a letter")
    assert _decide("11", "00") == StRejection("determinant", "det=-4, members have det +-1")
    assert _decide("0110", "0") == StRejection("determinant", "det=-2, members have det +-1")


def test_peel_round_trip():
    """_decide on X o g against _decide on g, for each single peel X, on
    random binary pairs g and on random members g: the verdict kinds agree
    (St is left unitary), a determinant rejection scales by det X, and a
    certificate recomposes to X o g and, when it starts with X, continues
    with the certificate of g."""
    rng, members = random.Random(37), random.Random(38)
    continued = 0
    for names in (("phi",), ("phit",), ("E", "phi"), ("E", "phit")):
        x = recompose(StCertificate(names))
        sign = determinant(incidence(x))
        for _ in range(200):
            g = ["".join(rng.choice("01") for _ in range(rng.randrange(30))) for _ in "01"]
            member = random_st_member(members)
            for pair in (g, [member.images["0"], member.images["1"]]):
                images = [apply(x, w) for w in pair]
                outer, inner = _decide(*images), _decide(*pair)
                assert type(outer) is type(inner)
                if isinstance(outer, StRejection):
                    assert outer.reason == inner.reason
                    if inner.reason == "determinant":
                        det = int(inner.detail.split(",")[0].removeprefix("det="))
                        assert outer.detail == f"det={sign * det}, members have det +-1"
                    continue
                y = recompose(outer)
                assert [apply(y, a) for a in "01"] == images
                if outer.factors[: len(names)] == names:
                    assert outer.factors == names + inner.factors
                    continued += 1
    assert continued >= 400


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


# The single-peel loop that _decide replaced, kept verbatim as a reference
# (the peel is a parameter): one generator per pass, both images sliced,
# concatenated and decoded separately.


def _single_undo(w, block):
    # block -> 0 and every other 0 -> 1: phi's decode for 01, phit's for 10.
    return w.replace(block, "x").replace("0", "1").replace("x", "0")


def _single_peel(im0, im1):
    heads, tails = im0[:1] + im1[:1], im0[-1:] + im1[-1:]
    if "11" not in im0 and "11" not in im1:
        if "1" not in heads:
            return ("phi",), _single_undo(im0, "01"), _single_undo(im1, "01")
        if "1" not in tails:
            return ("phit",), _single_undo(im0, "10"), _single_undo(im1, "10")
    if "00" not in im0 and "00" not in im1:
        if "0" not in heads:
            return ("E", "phi"), im0.replace("10", "0"), im1.replace("10", "0")
        if "0" not in tails:
            return ("E", "phit"), im0.replace("01", "0"), im1.replace("01", "0")
    return None


def _single_peel_decide(im0, im1, peel=_single_peel):
    if not im0 or not im1:
        return StRejection("erasing", "a generator product never erases a letter")
    det = im0.count("0") * len(im1) - im1.count("0") * len(im0)
    if det not in (-1, 1):
        return StRejection("determinant", f"det={det}, members have det +-1")
    factors = []
    while im0 != "0" or im1 != "1":
        if im0 == "1" and im1 == "0":
            factors.append("E")
            break
        step = peel(im0, im1)
        if step is None:
            return StRejection("no-decomposition", "no generator peeling reproduces the images")
        names, im0, im1 = step
        factors += names
    return StCertificate(tuple(factors))


def test_peel_matches_four_decoder_reference():
    """_decide gives the same certificate or rejection (reason and detail)
    as the single-peel loop, with its own peel and with the first of the
    four char-by-char decoders that takes both images, on every pair of
    binary words (empty ones too) of total length <= 12."""
    words = list(_binary_words(12))
    count = 0
    for im0 in words:
        for im1 in words:
            if len(im0) + len(im1) > 12:
                break
            expected = _single_peel_decide(im0, im1)
            assert _decide(im0, im1) == expected, (im0, im1)
            assert _single_peel_decide(im0, im1, _ref_peel) == expected, (im0, im1)
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


def _product_with_runs(rng, cap=4000):
    """The images of a seeded St product of up to six steps, each E, phi,
    phit or a run of up to 10^3 equal E.phi or E.phit; at most cap letters.
    (a, b) are the images of the product so far, multiplied on the right."""
    a, b = "0", "1"
    for _ in range(rng.randint(1, 6)):
        move = rng.randrange(5)
        if move == 0:
            a, b = b, a
        elif move == 1:
            a, b = a + b, a
        elif move == 2:
            a, b = b + a, a
        else:
            # (E.phi)^r maps 0 to 1^r 0 and (E.phit)^r maps 0 to 0 1^r; both fix 1.
            r = rng.choice((rng.randint(1, 5), rng.randint(1, 1000)))
            r = min(r, (cap - len(a)) // len(b))
            if r < 1:
                break
            a = b * r + a if move == 3 else a + b * r
    return a, b


def _code(factors):
    """The factors as one letter each: e for E, p for phi, t for phit."""
    return "".join({"E": "e", "phi": "p", "phit": "t"}[name] for name in factors)


def test_batched_runs_match_single_peels():
    """Seeded St products with E.phi and E.phit runs of up to 10^3, and
    copies with a 0 and a 1 of one image swapped (same determinant, mostly
    no decomposition), get the same record from _decide as from the
    single-peel loop, so the batched path meets members and rejections."""
    rng = random.Random(53)
    long_runs = rejected = 0
    for _ in range(150):
        a, b = _product_with_runs(rng)
        cert = _decide(a, b)
        assert isinstance(cert, StCertificate)
        assert cert == _single_peel_decide(a, b), (a, b)
        code = _code(cert.factors)
        long_runs += "ep" * 500 in code or "et" * 500 in code
        images = [a, b]
        which = rng.randrange(2)
        w = list(images[which])
        zeros, ones = ([i for i, x in enumerate(w) if x == c] for c in "01")
        if zeros and ones:
            i, j = rng.choice(zeros), rng.choice(ones)
            w[i], w[j] = w[j], w[i]
        images[which] = "".join(w)
        outcome = _decide(*images)
        assert outcome == _single_peel_decide(*images), images
        rejected += isinstance(outcome, StRejection) and outcome.reason == "no-decomposition"
    assert long_runs >= 20
    assert rejected >= 50


def _runs_to_images(factors):
    """recompose's images in linear passes: a run of E.phi or E.phit is
    multiplied on the right as one power, as in _product_with_runs."""
    code = _code(factors)
    a, b = "0", "1"
    i = 0
    while i < len(code):
        pair = code[i : i + 2]
        if pair in ("ep", "et"):
            r = 1
            while code.startswith(pair, i + 2 * r):
                r += 1
            a = b * r + a if pair == "ep" else a + b * r
            i += 2 * r
            continue
        a, b = {"e": (b, a), "p": (a + b, a), "t": (b + a, a)}[code[i]]
        i += 1
    return a, b


@pytest.mark.parametrize("mirror", [False, True])
def test_deepest_chain_in_linear_passes(mirror):
    """0=0,1=0^k1 and 0=0,1=10^k at k = 10^5 are accepted with 2k factors
    that recompose to the input, in a few linear passes (the single-peel
    loop takes O(k^2), about a minute)."""
    k = 100_000
    images = ("0", "1" + "0" * k if mirror else "0" * k + "1")
    start = time.perf_counter()
    cert = st_membership(Morphism(dict(zip("01", images))))
    elapsed = time.perf_counter() - start
    assert len(cert.factors) == 2 * k
    assert cert.degree == k
    assert _runs_to_images(cert.factors) == images
    assert elapsed < 2.0


def _folded(cert):
    """The reference recomposition: a fold of compose over the factors,
    each step applying the whole product so far (quadratic on deep chains)."""
    return reduce(compose, (GENERATORS[name] for name in cert.factors), ID2)


def test_recompose_matches_the_composition_fold():
    """recompose, which takes each block of E.phi and E.phit pairs in one
    step, equals the fold of compose on every certificate of the pairs of
    total length <= 12 and on seeded random factor strings, where runs mix
    E.phi and E.phit and E repeats."""
    words = list(_binary_words(12))
    certs = 0
    for im0 in words:
        for im1 in words:
            if len(im0) + len(im1) > 12:
                break
            cert = _decide(im0, im1)
            if isinstance(cert, StCertificate):
                assert recompose(cert) == _folded(cert) == Morphism({"0": im0, "1": im1})
                certs += 1
    assert certs == 658
    rng = random.Random(61)
    for _ in range(3000):
        names = rng.choices(("E", "phi", "phit"), weights=(2, 1, 1), k=rng.randrange(25))
        cert = StCertificate(tuple(names))
        assert recompose(cert) == _folded(cert), names


@pytest.mark.parametrize("mirror", [False, True])
def test_deepest_chain_recomposes_in_linear_time(mirror):
    """The 2k factors of 0=0,1=0^k1 and 0=0,1=10^k at k = 10^5 recompose to
    the input in well under a second (the fold of compose takes minutes)."""
    k = 100_000
    f = Morphism({"0": "0", "1": "1" + "0" * k if mirror else "0" * k + "1"})
    cert = st_membership(f)
    start = time.perf_counter()
    assert recompose(cert) == f
    assert time.perf_counter() - start < 1.0
