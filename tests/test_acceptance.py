"""Acceptance gate: one test per criterion, each printing one PASS line with
its measured time against the stated limit (run with -s to see the lines)."""

import io
import itertools
import random
import time
from contextlib import redirect_stdout

from sturmian_erasures import (
    BilliardConfig,
    Morphism,
    StCertificate,
    apply,
    apply_stream,
    balance_order,
    billiard_word,
    complexity,
    compose,
    determinant,
    erase,
    fibonacci_stream,
    incidence,
    intercalate,
    mse_membership,
    parse_morphism,
    parse_number,
    primality,
    psi,
    rational,
    recompose,
    sqrt,
    st_membership,
)
from sturmian_erasures.cli import run

from conftest import (
    fib_prefix,
    fibonacci_numbers,
    perturbed_st_corpus,
    projection_restriction,
    random_st_member,
)

EX1_G = parse_morphism("0=02,1=10,2=")
EX2_F = parse_morphism("0=0,1=1,2=012")
EX2_G = parse_morphism("0=01,1=02,2=")
EX2_H = parse_morphism("0=02,1=10,2=")


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def _report(num, label, elapsed, limit):
    line = (
        f"PASS criterion {num}: {label} "
        f"({elapsed * 1000:.2f} ms, limit {limit * 1000:.0f} ms)"
    )
    print(line)
    assert elapsed < limit, f"criterion {num} took {elapsed:.3f}s, limit {limit}s"


def test_criterion_01_fibonacci_cli():
    _cli(["word", "fib", "--length", "1"])  # warm the parser and caches
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        code, out = _cli(["word", "fib", "--length", "13"])
        elapsed = time.perf_counter() - t0
        assert code == 0 and out.strip() == "0100101001001"
        best = elapsed if best is None else min(best, elapsed)
    _report(1, "CLI prints the 13-letter Fibonacci prefix", best, 0.001)


def test_criterion_02_image_prefix():
    F = fib_prefix(40)
    t0 = time.perf_counter()
    image = apply(EX1_G, F)[:40]
    elapsed = time.perf_counter() - t0
    assert image == "0210020210021002021002021002100202100210"
    _report(2, "40-letter image prefix under (02,10,-)", elapsed, 0.010)


def test_criterion_03_counterexample_word():
    F = fib_prefix(100)
    fh = compose(EX2_F, EX2_H)
    _cli(["word", "fib", "--length", "1"])
    t0 = time.perf_counter()
    w = apply(fh, F)
    assert w.startswith("001210")
    flat = erase(w, "2")
    assert flat.startswith("00110")
    assert complexity(flat, 2).counts[2] == 4
    code, out = _cli(["analyze", "wse", w, "--max-n", "5"])
    elapsed = time.perf_counter() - t0
    assert code == 1
    assert "P(2)=4" in out
    _report(3, "refuted image word with witness P(2)=4", elapsed, 0.010)


def test_criterion_04_membership_decisions():
    t0 = time.perf_counter()
    accepted = [EX2_G, EX2_H, compose(EX2_F, EX2_G)]
    for f in accepted:
        verdict = mse_membership(f)
        assert verdict.kind == "erasing-member"
        for j, cert in verdict.certificates.items():
            assert recompose(cert) == projection_restriction(f, verdict.erased, j)
    assert mse_membership(EX2_F).kind == "rejected"
    assert mse_membership(compose(EX2_F, EX2_H)).kind == "rejected"
    for images in itertools.permutations("012"):
        assert mse_membership(Morphism(dict(zip("012", images)))).kind == "permutation"
    elapsed = time.perf_counter() - t0
    _report(4, "membership decisions with exact certificates", elapsed, 0.100)


def test_criterion_05_psi_family():
    t0 = time.perf_counter()
    u = fibonacci_numbers(24)
    assert psi(1).psi == parse_morphism("0=01,1=20,2=")
    assert psi(2).psi == parse_morphism("0=2010,1=01,2=")
    previous = None
    for n in range(1, 21):
        family = psi(n)
        if n <= 12:
            for a in "012":
                assert erase(family.psi.images[a], "2") == family.f.images[a]
                assert erase(family.psi.images[a], "1") == family.g.images[a]
                assert erase(family.psi.images[a], "0") == family.h.images[a]
            assert primality(family.psi).kind == "prime-certified"
            if previous is not None:
                assert family.psi != previous.psi
            previous = family
        if n >= 2:
            for a in "01":
                assert family.f.images[a].count("0") == family.g.images[a].count("0")
                assert family.f.images[a].count("1") == family.h.images[a].count("1")
                assert family.g.images[a].count("2") == family.h.images[a].count("2")
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
        assert incidence(family.f).rows == (
            (u[n + 1], u[n], 0),
            (u[n], u[n - 1], 0),
            (0, 0, 0),
        )
    elapsed = time.perf_counter() - t0
    _report(5, "prime family tables, identities and matrices", elapsed, 1.0)


def test_criterion_06_st_membership():
    t0 = time.perf_counter()
    rng = random.Random(61)
    for _ in range(1000):
        m = random_st_member(rng, max_factors=10)
        cert = st_membership(m)
        assert isinstance(cert, StCertificate)
        assert recompose(cert) == m
        assert determinant(incidence(m)) in (-1, 1)
    corpus = perturbed_st_corpus(100)
    assert len(corpus) == 100
    for _, rejection in corpus:
        assert rejection.reason in ("erasing", "determinant", "no-decomposition")
    elapsed = time.perf_counter() - t0
    _report(6, "random members accepted, perturbed corpus rejected", elapsed, 1.0)


def test_criterion_07_composite_certificate():
    t0 = time.perf_counter()
    f = parse_morphism("0=0102,1=01,2=")
    verdict = primality(f)
    assert verdict.kind == "composite-certified"
    assert compose(verdict.g_factor, verdict.h_factor) == f
    assert mse_membership(verdict.g_factor).accepted
    assert mse_membership(verdict.h_factor).accepted
    for n in range(1, 9):
        assert primality(psi(n).psi).kind == "prime-certified"
    elapsed = time.perf_counter() - t0
    _report(7, "composite split verified, family certified prime", elapsed, 0.100)


def test_criterion_08_billiard_golden_mean():
    theta = parse_number("(1+sqrt(5))/2")
    frac = theta - rational(1)
    config = BilliardConfig(
        d=(rational(1), frac, frac * frac),
        rho=(rational(0), frac, frac * frac),
    )
    t0 = time.perf_counter()
    coded = billiard_word(config).prefix(200)
    expected = apply_stream(
        parse_morphism("0=0102,1=01,2="), fibonacci_stream()
    ).prefix(200)
    elapsed = time.perf_counter() - t0
    assert coded == expected
    _report(8, "golden-mean billiard word matches the morphic image", elapsed, 2.0)


def test_criterion_09_balance_orders():
    F = fib_prefix(10_000)
    t0 = time.perf_counter()
    assert balance_order(F, 50).order == 1
    assert balance_order(apply(EX1_G, F)[:10_000], 50).order == 2
    for n in range(1, 6):
        image = apply(psi(n).psi, F)[:10_000]
        assert balance_order(image, 50).order == 2
    elapsed = time.perf_counter() - t0
    _report(9, "balance order 2 for images, 1 for the base word", elapsed, 1.0)


def test_criterion_10_complexity_regimes():
    t0 = time.perf_counter()
    image = apply(EX1_G, fib_prefix(10_000))[:10_000]
    profile = complexity(image, 30)
    k = profile.counts[10] - 10
    assert all(profile.counts[n] == n + k for n in range(10, 31))

    config = BilliardConfig(
        d=(rational(1), sqrt(2), sqrt(3)),
        rho=(rational(0), parse_number("sqrt(2)/2"), parse_number("sqrt(3)/3")),
    )
    w = billiard_word(config).prefix(50_000)
    ceiling = complexity(w, 10)
    shortfalls = []
    for n in range(1, 11):
        assert ceiling.counts[n] <= n * n + n + 1
        if ceiling.counts[n] < n * n + n + 1:
            shortfalls.append(n)
    elapsed = time.perf_counter() - t0
    note = f"shortfall at n={shortfalls}" if shortfalls else "ceiling met exactly"
    _report(10, f"affine and quadratic complexity regimes, {note}", elapsed, 5.0)


def test_criterion_11_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(67)
    for _ in range(10_000):
        w = "".join(rng.choice("012") for _ in range(rng.randrange(51)))
        assert intercalate(erase(w, "2"), erase(w, "1"), erase(w, "0")) == w

    pool = [EX1_G, EX2_F, parse_morphism("0=0,1=1,2="), parse_morphism("0=1,1=2,2=0")]
    words = [""]
    frontier = [""]
    for _ in range(8):
        frontier = [w + c for w in frontier for c in "012"]
        words.extend(frontier)
    assert len(words) == 9841
    for w in words:
        for a in "012":
            assert erase(w, a) == "".join(c for c in w if c != a)
        for f in pool:
            naive = ""
            for c in w:
                naive += f.images[c]
            assert apply(f, w) == naive
    for f in pool:
        for g in pool:
            fg = compose(f, g)
            for w in words[:400]:
                assert apply(fg, w) == apply(f, apply(g, w))
    elapsed = time.perf_counter() - t0
    _report(11, "library agrees with naive reference implementations", elapsed, 10.0)
