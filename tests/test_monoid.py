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
    decode_over_code,
    determinant,
    incidence,
    recompose,
    st_membership,
    sturmian_verdict,
)
from sturmian_erasures.monoid import GENERATORS
from sturmian_erasures.morphisms import E, ID2, PHI, PHIT

from conftest import fib_prefix, perturbed_st_corpus, random_st_member


def test_decode_examples():
    assert decode_over_code("010", "phi") == "01"
    assert decode_over_code("01", "phit") is None
    assert decode_over_code("", "phi") == ""
    assert decode_over_code("", "phit") == ""
    assert decode_over_code("100", "phit") == "01"
    assert decode_over_code("1", "phi") is None
    with pytest.raises(ValueError):
        decode_over_code("01", "E")


def test_decode_round_trip():
    rng = random.Random(37)
    for code, f in (("phi", PHI), ("phit", PHIT)):
        for _ in range(200):
            w = "".join(rng.choice("01") for _ in range(rng.randrange(30)))
            assert decode_over_code(apply(f, w), code) == w


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


def test_certificate_json():
    cert = st_membership(Morphism({"0": "010", "1": "0"}))
    assert cert.to_json() == list(cert.factors)
    assert GENERATORS.keys() == {"E", "phi", "phit"}
