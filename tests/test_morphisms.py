import itertools
import random

import pytest

from sturmian_erasures import (
    IncidenceMatrix,
    Morphism,
    apply,
    classify_letters,
    compose,
    determinant,
    format_morphism,
    incidence,
    is_unit,
    parse_morphism,
)
from sturmian_erasures.morphisms import (
    E,
    E0,
    E1,
    ID2,
    ID3,
    PHI,
    PHI1,
    PHIT,
    PHIT1,
    PI2,
)

from conftest import fibonacci_numbers

EX1_G = parse_morphism("0=02,1=10,2=")
EX2_F = parse_morphism("0=0,1=1,2=012")


def test_apply_examples():
    assert apply(PHI, "01") == "010"
    assert apply(EX1_G, "010") == "021002"
    assert apply(PI2, "0210020210") == "0100010"
    assert apply(ID3, "012") == "012"
    with pytest.raises(ValueError):
        apply(PHI, "012")


def test_compose_examples():
    assert compose(E, E) == ID2
    assert compose(PHI, PHI) == Morphism({"0": "010", "1": "01"})
    h = parse_morphism("0=02,1=10,2=")
    fh = compose(EX2_F, h)
    assert fh == parse_morphism("0=0012,1=10,2=")
    g = parse_morphism("0=01,1=02,2=")
    assert compose(EX2_F, g) == parse_morphism("0=01,1=0012,2=")
    with pytest.raises(ValueError):
        compose(PHI, EX2_F)


def test_operator_sugar():
    assert (PHI * PHI)("0") == "010"
    assert PHI**0 == ID2
    assert PHI**3 == compose(PHI, compose(PHI, PHI))
    assert PHI("010") == apply(PHI, "010")


def test_morphism_validation():
    with pytest.raises(ValueError):
        Morphism({"0": "01"})
    with pytest.raises(ValueError):
        Morphism({"0": "0", "1": "1", "3": "2"})
    for image in ("x01", "0x1", "01x", "x"):
        with pytest.raises(ValueError) as err:
            Morphism({"0": "0", "1": image})
        assert str(err.value) == f"image of '1' contains letters outside 012: {image!r}"


def test_parse_format_round_trip():
    assert format_morphism(EX1_G) == "0=02,1=10,2="
    assert parse_morphism("0=01,1=0") == PHI
    for f in (PHI, E, EX1_G, EX2_F, ID3):
        assert parse_morphism(format_morphism(f)) == f
    for bad in ("0=01,0=1", "0=01", "0=01,1=0,2=,2=", "x=0,1=1", "0=03,1=1", ""):
        with pytest.raises(ValueError):
            parse_morphism(bad)


def test_equality_is_extensional():
    assert Morphism({"0": "01", "1": "0"}) == PHI
    assert hash(Morphism({"0": "01", "1": "0"})) == hash(PHI)
    assert PHI != PHIT


def test_incidence_examples():
    assert incidence(PHI).rows == ((1, 1), (1, 0))
    assert incidence(ID3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert incidence(EX1_G).rows == ((1, 1, 0), (0, 1, 0), (1, 0, 0))
    u = fibonacci_numbers(23)
    for n in range(1, 21):
        expected = (
            (u[n + 1], u[n], 0),
            (u[n], u[n - 1], 0),
            (0, 0, 0),
        )
        assert incidence(PHI1**n).rows == expected
        assert incidence(PHIT1**n).rows == expected


def test_determinant_examples():
    assert determinant(incidence(PHI)) == -1
    assert determinant(incidence(E)) == -1
    assert determinant(incidence(ID3)) == 1
    assert determinant(incidence(EX1_G)) == 0
    with pytest.raises(ValueError):
        determinant(IncidenceMatrix(((1, 0, 0), (0, 1, 0)), "01", "012"))


def _random_ternary(rng):
    return Morphism(
        {
            a: "".join(rng.choice("012") for _ in range(rng.randrange(4)))
            for a in "012"
        }
    )


def test_incidence_is_a_homomorphism():
    rng = random.Random(29)
    for _ in range(1000):
        f = _random_ternary(rng)
        g = _random_ternary(rng)
        lhs = incidence(compose(g, f))
        rhs = incidence(g) * incidence(f)
        assert lhs.rows == rhs.rows


def test_column_count_identity():
    rng = random.Random(31)
    for _ in range(200):
        f = _random_ternary(rng)
        w = "".join(rng.choice("012") for _ in range(rng.randrange(30)))
        m = incidence(f)
        image = apply(f, w)
        for i, a in enumerate(m.row_letters):
            expected = sum(
                m[i, j] * w.count(b) for j, b in enumerate(m.col_letters)
            )
            assert image.count(a) == expected


def test_classify_examples():
    c = classify_letters(PI2)
    assert c.nilpotent == {"2"}
    assert c.permuting == {"0", "1"}
    assert c.expansive == frozenset()

    c = classify_letters(E0)
    assert c.nilpotent == frozenset()
    assert c.permuting == c.permuting_core == {"0", "1", "2"}
    assert c.expansive == frozenset()

    c = classify_letters(PHI1)
    assert c.nilpotent == {"2"}
    assert c.permuting == frozenset()
    assert c.expansive == {"0", "1"}


def test_predicates():
    assert is_unit(E1)
    assert is_unit(E0)
    assert is_unit(PI2)
    assert not is_unit(PHI1)
    assert not is_unit(Morphism({"0": "", "1": "", "2": ""}))
    assert classify_letters(Morphism({"0": "", "1": "", "2": ""})).nilpotent == set("012")
    assert classify_letters(PHI1).nilpotent != set("012")
    assert classify_letters(PHI1).expansive
    assert not classify_letters(E0).expansive


ALL_SHORT_IMAGES = [""] + [
    "".join(p) for n in (1, 2, 3) for p in itertools.product("012", repeat=n)
]


def _length_trace(f, steps):
    m = incidence(f).rows
    v = [1, 1, 1]
    out = []
    for _ in range(steps):
        v = [sum(v[i] * m[i][j] for i in range(3)) for j in range(3)]
        out.append(tuple(v))
    return out


def _power(f, w, n):
    for _ in range(n):
        w = apply(f, w)
    return w


def test_classification_partition_exhaustive():
    """Over every ternary morphism with image lengths <= 3: the three classes
    partition the alphabet, nilpotent letters die within |A| steps, each
    witness exponent holds when f is iterated, and boundedness agrees with
    incidence-power growth (lengths of bounded letters are 6-periodic after
    the preperiod, so l_12 == l_24)."""
    alphabet = set("012")
    for i0 in ALL_SHORT_IMAGES:
        for i1 in ALL_SHORT_IMAGES:
            for i2 in ALL_SHORT_IMAGES:
                f = Morphism({"0": i0, "1": i1, "2": i2})
                c = classify_letters(f)
                assert c.nilpotent | c.permuting | c.expansive == alphabet
                assert not c.nilpotent & c.permuting
                assert not c.nilpotent & c.expansive
                assert not c.permuting & c.expansive
                assert c.permuting_core <= c.permuting
                for a in alphabet:
                    w = a
                    for _ in range(3):
                        w = apply(f, w)
                    assert (w == "") == (a in c.nilpotent)
                assert set(c.witness) == c.nilpotent | c.permuting
                good = c.nilpotent | c.permuting_core
                for a, n in c.witness.items():
                    w = _power(f, a, n)
                    if a in c.nilpotent:
                        assert w == "" != _power(f, a, n - 1), (f, a, n)
                    elif a in c.permuting_core:
                        assert "".join(x for x in w if x not in c.nilpotent) == a, (f, a, n)
                    else:
                        assert set(w) <= good and set(w) & c.permuting_core, (f, a, n)
                trace = _length_trace(f, 24)
                for j, a in enumerate("012"):
                    bounded = a not in c.expansive
                    assert bounded == (trace[23][j] == trace[11][j])
                # A unit keeps some letter alive and every length bounded.
                assert is_unit(f) == (
                    any(trace[23]) and all(trace[23][j] == trace[11][j] for j in range(3))
                )
