import collections
import itertools
import json
import random
from functools import reduce

import pytest

from sturmian_erasures import (
    MSEVerdict,
    Morphism,
    StCertificate,
    StRejection,
    apply,
    compose,
    erase,
    incidence,
    intercalate,
    is_unit,
    mse_membership,
    parse_morphism,
    primality,
    psi,
    recompose,
    st_membership,
    wse_verdict,
)
from sturmian_erasures.cli import run
from sturmian_erasures.morphisms import E0, E2, ID3, PHI1, PHIT1, PI2
from sturmian_erasures.mse import _RECODE

from conftest import fib_prefix, fibonacci_numbers, projection_restriction

EX1_G = parse_morphism("0=02,1=10,2=")
EX2_F = parse_morphism("0=0,1=1,2=012")
EX2_G = parse_morphism("0=01,1=02,2=")
EX2_H = parse_morphism("0=02,1=10,2=")


def test_projection_restriction():
    r = projection_restriction(EX1_G, "2", "2")
    assert r == Morphism({"0": "0", "1": "10"})
    r = projection_restriction(EX1_G, "2", "0")
    assert r == Morphism({"0": "1", "1": "0"})
    r = projection_restriction(EX1_G, "2", "1")
    assert r == Morphism({"0": "01", "1": "0"})


def test_projection_restriction_matches_erase_then_recode():
    """The reference and the translate tables mse_membership recodes with
    agree with erasing j, then recoding the two remaining letters in order,
    for every (i, j)."""
    rng = random.Random(53)
    for _ in range(300):
        f = Morphism({a: "".join(rng.choice("012") for _ in range(rng.randrange(9))) for a in "012"})
        for i, j in itertools.product("012", repeat=2):
            dom = [a for a in "012" if a != i]
            cod = [a for a in "012" if a != j]
            recode = {cod[0]: "0", cod[1]: "1"}
            expected = {
                str(pos): "".join(recode[c] for c in erase(f.images[a], j))
                for pos, a in enumerate(dom)
            }
            assert projection_restriction(f, i, j) == Morphism(expected)
            table = _RECODE[j]
            translated = {str(pos): f.images[a].translate(table) for pos, a in enumerate(dom)}
            assert translated == expected


def test_membership_erasing_member(capsys):
    verdict = mse_membership(EX1_G)
    assert verdict.kind == "erasing-member"
    assert verdict.accepted
    assert verdict.erased == "2"
    assert set(verdict.certificates) == {"0", "1", "2"}
    for j, cert in verdict.certificates.items():
        assert isinstance(cert, StCertificate)
        assert recompose(cert) == projection_restriction(EX1_G, "2", j)
    assert run(["mse", "check", "--spec", "0=02,1=10,2=", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "erasing-member",
        "erased": "2",
        "certificates": {j: list(cert.factors) for j, cert in verdict.certificates.items()},
    }


def _length_witness(f, i):
    """The length conditions on a morphism erasing i, checked letter by
    letter: None on pass, else the witness text of mse_membership."""
    others = [a for a in "012" if a != i]
    for a in others:
        image = f.images[a]
        if len(image) < 2:
            return f"|f({a})| = {len(image)} < 2"
        if erase(image, i) == "":
            return f"f({a}) = {image!r} has no surviving letter"
    letters = set(f.images[others[0]] + f.images[others[1]])
    missing = [a for a in others if a not in letters]
    return f"letter {missing[0]} never occurs in the images" if missing else None


def _projection_path_membership(f):
    """The projection path: the test-local length check, then st_membership
    on the test-local projection_restriction morphism for each j in 012."""
    i = next(a for a in "012" if f.images[a] == "")
    witness = _length_witness(f, i)
    if witness is not None:
        return MSEVerdict(kind="rejected", reason="length-filter", witness=witness)
    certificates = {}
    for j in "012":
        outcome = st_membership(projection_restriction(f, i, j))
        if isinstance(outcome, StRejection):
            return MSEVerdict(
                kind="rejected",
                reason=f"projection-{j}-not-sturmian",
                witness=f"{outcome.reason}: {outcome.detail}",
            )
        certificates[j] = outcome
    return MSEVerdict(kind="erasing-member", erased=i, certificates=certificates)


def test_membership_matches_projection_path_on_erasing_ball():
    """Every ternary morphism that erases a letter and has images of at most
    4 letters gets the same verdict (kind, reason, witness, certificates)
    from mse_membership as from the projection path."""
    words = ["".join(p) for n in range(5) for p in itertools.product("012", repeat=n)]
    kinds = collections.Counter()
    for images in itertools.product(words, repeat=3):
        if "" not in images:
            continue
        f = Morphism(dict(zip("012", images)))
        verdict = mse_membership(f)
        assert verdict == _projection_path_membership(f), images
        kinds[verdict.reason or verdict.kind] += 1
    assert sum(kinds.values()) == 121**3 - 120**3 == 43_561
    assert {"erasing-member", "length-filter"} < kinds.keys()
    assert {f"projection-{j}-not-sturmian" for j in "012"} < kinds.keys()


def test_membership_permutations():
    assert mse_membership(E0).kind == "permutation"
    assert mse_membership(ID3).kind == "permutation"
    for images in itertools.permutations("012"):
        f = Morphism(dict(zip("012", images)))
        assert mse_membership(f).kind == "permutation"


def test_membership_rejections():
    verdict = mse_membership(EX2_F)
    assert verdict.kind == "rejected"
    assert verdict.reason == "not-permutation-no-erased-letter"
    assert not verdict.accepted

    short = mse_membership(parse_morphism("0=0,1=12,2="))
    assert short.reason == "length-filter"

    skew = mse_membership(parse_morphism("0=22,1=21,2="))
    assert skew.reason == "length-filter"

    bad = mse_membership(parse_morphism("0=0012,1=10,2="))
    assert bad.kind == "rejected"
    assert bad.reason == "projection-2-not-sturmian"

    with pytest.raises(ValueError):
        mse_membership(parse_morphism("0=01,1=0"))


def test_membership_worked_compositions():
    assert mse_membership(EX2_G).accepted
    assert mse_membership(EX2_H).accepted
    fg = compose(EX2_F, EX2_G)
    assert fg == parse_morphism("0=01,1=0012,2=")
    assert mse_membership(fg).accepted
    fh = compose(EX2_F, EX2_H)
    assert fh == parse_morphism("0=0012,1=10,2=")
    assert not mse_membership(fh).accepted


def test_length_filter():
    assert mse_membership(EX1_G).reason is None
    for spec, witness in [
        ("0=0,1=12,2=", "|f(0)| = 1 < 2"),
        ("0=22,1=21,2=", "f(0) = '22' has no surviving letter"),
        ("0=00,1=00,2=", "letter 1 never occurs in the images"),
    ]:
        verdict = mse_membership(parse_morphism(spec))
        assert (verdict.reason, verdict.witness) == ("length-filter", witness)
    # The filter applies to erasing morphisms only.
    assert mse_membership(EX2_F).reason == "not-permutation-no-erased-letter"


@pytest.mark.parametrize(
    "f", [parse_morphism("0=01,1="), parse_morphism("0=,1=0"), "0=01,1=10,2="]
)
def test_membership_rejects_a_morphism_not_on_012(f):
    with pytest.raises(ValueError, match="^mse_membership expects a morphism on 012$"):
        mse_membership(f)


def test_every_member_passes_length_filter():
    rng = random.Random(43)
    found = 0
    while found < 50:
        f = Morphism(
            {
                "0": "".join(rng.choice("012") for _ in range(rng.randrange(1, 5))),
                "1": "".join(rng.choice("012") for _ in range(rng.randrange(1, 5))),
                "2": "",
            }
        )
        if mse_membership(f).kind == "erasing-member":
            found += 1
            assert _length_witness(f, "2") is None


def test_intercalate_examples():
    assert intercalate("01", "0", "1") == "01"
    assert intercalate("0", "2", "1") is None
    assert intercalate("010", "200", "21") == "2010"
    assert intercalate("", "", "") == ""
    with pytest.raises(ValueError):
        intercalate("012", "0", "1")
    with pytest.raises(ValueError):
        intercalate("01", "01", "12")
    with pytest.raises(ValueError):
        intercalate("01", "02", "10")


def test_intercalate_errors_and_miscounted_blocks():
    """A letter outside its pair, in any of the three positions, is an
    error with one message; a slice of v with one 0 too many (so another
    with one too few) gives None, as the letterwise reference does."""
    for args in (("0a", "", ""), ("", "1", ""), ("", "", "0")):
        with pytest.raises(ValueError, match=r"^intercalate expects words over 01, 02 and 12$"):
            intercalate(*args)
    assert intercalate("010", "200", "21") == "2010"
    assert intercalate("01010", "0020", "121") == "010210"
    for args in (("010", "002", "21"), ("01010", "0002", "121")):
        assert intercalate(*args) is None
        assert _intercalate_reference(*args) is None


def _intercalate_reference(u, v, w):
    """Letter-by-letter intercalation: at each step at most one rule can
    fire, since emitting 0 and 1 disagree on the front of u, emitting 0 and 2
    on the front of v, and emitting 1 and 2 on the front of w."""
    iu = iv = iw = 0
    out = []
    while iu < len(u) or iv < len(v) or iw < len(w):
        if iu < len(u) and u[iu] == "0" and iv < len(v) and v[iv] == "0":
            out.append("0")
            iu += 1
            iv += 1
        elif iu < len(u) and u[iu] == "1" and iw < len(w) and w[iw] == "1":
            out.append("1")
            iu += 1
            iw += 1
        elif iv < len(v) and v[iv] == "2" and iw < len(w) and w[iw] == "2":
            out.append("2")
            iv += 1
            iw += 1
        else:
            return None
    return "".join(out)


def _words_up_to(alphabet, n):
    return ["".join(p) for k in range(n + 1) for p in itertools.product(alphabet, repeat=k)]


def test_intercalate_matches_letterwise_reference():
    # Every triple of words of length <= 4: 31**3 = 29,791, most incompatible.
    compatible = 0
    for u in _words_up_to("01", 4):
        for v in _words_up_to("02", 4):
            for w in _words_up_to("12", 4):
                expected = _intercalate_reference(u, v, w)
                assert intercalate(u, v, w) == expected, (u, v, w)
                compatible += expected is not None
    assert compatible == 361


def test_intercalate_round_trip():
    rng = random.Random(47)
    for _ in range(500):
        w = "".join(rng.choice("012") for _ in range(rng.randrange(50)))
        assert intercalate(erase(w, "2"), erase(w, "1"), erase(w, "0")) == w


def test_psi_tables():
    p1 = psi(1)
    assert p1.psi == parse_morphism("0=01,1=20,2=")
    assert p1.f == parse_morphism("0=01,1=0,2=")
    assert p1.g == parse_morphism("0=0,1=20,2=")
    assert p1.h == parse_morphism("0=1,1=2,2=")
    p2 = psi(2)
    assert p2.psi == parse_morphism("0=2010,1=01,2=")
    p3 = psi(3)
    assert p3.psi == parse_morphism("0=012001,1=2010,2=")
    assert erase(p3.psi.images["0"], "2") == (PHI1**3).images["0"]
    with pytest.raises(ValueError):
        psi(0)


@pytest.mark.parametrize("n", [2.5, 2.0, True, False, "3", None, -1])
def test_psi_rejects_anything_but_a_positive_int(n):
    with pytest.raises(ValueError, match="psi is defined for n >= 1"):
        psi(n)


def test_psi_projection_identities():
    """psi builds its components as its erasures; the reference here builds
    them from generator products, each with 2 erased on the right."""
    for n in range(1, 13):
        family = psi(n)
        tail = PHIT1 ** (n - 1)
        products = {
            "f": PHI1**n,
            "g": reduce(compose, [E0, PHIT1, E2, tail]),
            "h": reduce(compose, [E2, E0, tail]),
        }
        for name, product in products.items():
            assert getattr(family, name) == compose(product, PI2)
        for a in "012":
            assert erase(family.psi.images[a], "2") == family.f.images[a]
            assert erase(family.psi.images[a], "1") == family.g.images[a]
            assert erase(family.psi.images[a], "0") == family.h.images[a]
        assert mse_membership(family.psi).kind == "erasing-member"


def test_psi_component_counts():
    for n in range(2, 13):
        family = psi(n)
        for a in "01":
            assert family.f.images[a].count("0") == family.g.images[a].count("0")
            assert family.f.images[a].count("1") == family.h.images[a].count("1")
            assert family.g.images[a].count("2") == family.h.images[a].count("2")


def test_psi_component_matrices():
    u = fibonacci_numbers(16)
    for n in range(2, 13):
        family = psi(n)
        assert incidence(family.f).rows == (
            (u[n + 1], u[n], 0),
            (u[n], u[n - 1], 0),
            (0, 0, 0),
        )
        assert incidence(family.g).rows == (
            (u[n + 1], u[n], 0),
            (0, 0, 0),
            (u[n - 1], u[n - 2], 0),
        )
        assert incidence(family.h).rows == (
            (0, 0, 0),
            (u[n], u[n - 1], 0),
            (u[n - 1], u[n - 2], 0),
        )


def test_psi_distinct_and_unrelated_images():
    previous = None
    for n in range(1, 13):
        family = psi(n)
        if previous is not None:
            assert family.psi != previous.psi
        previous = family
        one, zero = family.psi.images["1"], family.psi.images["0"]
        assert not zero.startswith(one)
        assert not zero.endswith(one)


def test_primality_psi_is_prime():
    for n in range(1, 13):
        verdict = primality(psi(n).psi)
        assert verdict.kind == "prime-certified"


def test_primality_composite(capsys):
    f = parse_morphism("0=0102,1=01,2=")
    verdict = primality(f)
    assert verdict.kind == "composite-certified"
    assert verdict.g_factor == parse_morphism("0=01,1=02,2=")
    assert verdict.h_factor == parse_morphism("0=01,1=02,2=")
    assert compose(verdict.g_factor, verdict.h_factor) == f
    assert mse_membership(verdict.g_factor).accepted
    assert mse_membership(verdict.h_factor).accepted
    assert not is_unit(verdict.h_factor)
    assert run(["mse", "prime", "--spec", "0=0102,1=01,2=", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "composite-certified",
        "note": "",
        "g": "0=01,1=02,2=",
        "h": "0=01,1=02,2=",
    }


def test_primality_units_and_errors():
    unit = primality(E0)
    assert unit.kind == "unknown"
    assert "units" in unit.note
    with pytest.raises(ValueError):
        primality(EX2_F)
    with pytest.raises(ValueError):
        primality(parse_morphism("0=0012,1=10,2="))


def test_primality_unknown_cases():
    counts = primality(parse_morphism("0=21,1=0221,2="))
    assert counts.kind == "unknown"
    assert counts.note.startswith("images overlap but the letter counts")

    side = primality(parse_morphism("0=10,1=0210,2="))
    assert side.kind == "unknown"
    assert side.note == "the shorter image is not on the splitting side"


def test_primality_random_members_always_verdict():
    rng = random.Random(53)
    found = 0
    while found < 100:
        f = Morphism(
            {
                "0": "".join(rng.choice("012") for _ in range(rng.randrange(1, 6))),
                "1": "".join(rng.choice("012") for _ in range(rng.randrange(1, 6))),
                "2": "",
            }
        )
        if mse_membership(f).kind != "erasing-member":
            continue
        found += 1
        verdict = primality(f)
        assert verdict.kind in ("prime-certified", "composite-certified", "unknown")
        if verdict.kind == "composite-certified":
            assert compose(verdict.g_factor, verdict.h_factor) == f
            assert mse_membership(verdict.g_factor).accepted
            assert mse_membership(verdict.h_factor).accepted
            assert not is_unit(verdict.h_factor)


def test_decision_soundness_on_streams():
    F = fib_prefix(5000)
    for member in (EX2_G, EX2_H, compose(EX2_F, EX2_G), psi(1).psi, psi(3).psi):
        assert mse_membership(member).accepted
        image = apply(member, F)[:5000]
        assert wse_verdict(image, 30).consistent
    fh = compose(EX2_F, EX2_H)
    assert not mse_membership(fh).accepted
    assert not wse_verdict(apply(fh, F)[:5000], 30).consistent
