"""The in-process workloads: exact streams, long-prefix analysis and the
decider corpus.

Each workload yields operations built from a seeded random generator.  An
operation's `run` is the only code timed; it calls the library with inputs
the benchmark made.  `check` compares the result with a reference from
`oracles`, which never calls the layer under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import oracles as O

CHUNK = 64  # letters added to a stream per operation


@dataclass
class Op:
    run: Callable
    check: Callable  # result -> None when correct, else a message
    units: int
    kind: str
    known_defect: str | None = None  # exception name recorded as expected
    on_failure: Callable | None = None
    boundary: bool = True  # a run may stop before this op (a round starts)


def _lib():
    import sturmian_erasures as lib

    return lib


# -- exact streams ---------------------------------------------------------------


def _coord_text(coeff, radicand):
    if radicand == 1:
        return str(coeff)
    return f"sqrt({radicand})" if coeff == 1 else f"{coeff}*sqrt({radicand})"


class StreamKind:
    """One family of streams: how to build it and how to check a prefix."""

    def __init__(self, name, make):
        self.name = name
        self.make = make  # rng -> (build() -> WordStream, check(word) -> msg)


def _billiard(d_text, rho_text):
    def build():
        lib = _lib()
        d = tuple(lib.parse_number(x) for x in d_text.split(","))
        rho = tuple(lib.parse_number(x) for x in rho_text.split(","))
        return lib.billiard_word(lib.BilliardConfig(d=d, rho=rho))

    return build


def _mechanical(alpha_text, rho_text="0"):
    def build():
        lib = _lib()
        return lib.mechanical_stream(
            lib.parse_number(alpha_text), lib.parse_number(rho_text)
        )

    return build


def _expect(word, reference, label):
    if word == reference:
        return None
    pos = next((i for i, (a, b) in enumerate(zip(word, reference)) if a != b), None)
    return f"{label}: first difference at letter {pos}"


def _sqrt_check(coords, rho=(0, 0, 0), extra=None):
    """Exact reference for d_i = c_i sqrt(s_i) and a rational start rho."""

    def check(word):
        times = [O.sqrt_times(c, s, r) for (c, s), r in zip(coords, rho)]
        ref = O.billiard_code(times, len(word))
        return _expect(word, ref, "billiard") or (extra(word) if extra else None)

    return check


def _wse_check(word):
    return None if O.wse_candidate_ok(word, 10) else "an erasure is not Sturmian"


def _standard_check(p, d, q):
    def check(word):
        cf = O.quadratic_cf(p, d, q, 64)  # standard words grow at least like Fibonacci
        return _expect(word, O.standard_mechanical(cf, len(word)), "standard word")

    return check


def _golden_check(word):
    ref = O.apply_images(O.parse_spec("0=0102,1=01,2="), O.fibonacci_word(len(word)))
    return _expect(word, ref[: len(word)], "morphic image of the Fibonacci word")


def _fixed(build, check):
    return lambda rng: (build, check)


# Seeded streams vary starting points, coefficients and slopes but keep the
# square roots of the named ones, so that their cost, and with it the
# throughput, varies little from seed to seed.


def irrational_kinds():
    def seeded_start(rng):
        q = rng.randint(2, 9)
        rho = [O.Fraction(rng.randrange(q), q) for _ in range(3)]
        coords = [(1, 1), (1, 2), (1, 5)]
        return _billiard("1,sqrt(2),sqrt(5)", ",".join(map(str, rho))), _sqrt_check(coords, rho)

    def seeded_quadratic(rng):
        d = rng.choice((2, 3, 5))
        a, q = math.isqrt(d), rng.randint(1, 3)
        return _mechanical(f"(sqrt({d})-{a})/{q}"), _standard_check(-a, d, q)

    golden = "(sqrt(5)-1)/2"
    golden_sq = "(3-sqrt(5))/2"
    return [
        StreamKind("billiard-1-r2-r3", _fixed(
            _billiard("1,sqrt(2),sqrt(3)", "0,sqrt(2)/2,sqrt(3)/3"), _wse_check)),
        StreamKind("billiard-1-r2-r5", _fixed(
            _billiard("1,sqrt(2),sqrt(5)", "0,0,0"),
            _sqrt_check([(1, 1), (1, 2), (1, 5)], extra=_wse_check))),
        StreamKind("billiard-golden", _fixed(
            _billiard(f"1,{golden},{golden_sq}", f"0,{golden},{golden_sq}"), _golden_check)),
        StreamKind("billiard-1-r2-r5-seeded-start", seeded_start),
        StreamKind("mechanical-r2", _fixed(_mechanical("sqrt(2)-1"), _standard_check(-1, 2, 1))),
        StreamKind("mechanical-r3", _fixed(
            _mechanical("(sqrt(3)-1)/2"), _standard_check(-1, 3, 2))),
        StreamKind("mechanical-seeded-quadratic", seeded_quadratic),
    ]


def _rational_check(d, rho):
    def check(word):
        ref = O.billiard_code([O.rational_times(x, r) for x, r in zip(d, rho)], len(word))
        return _expect(word, ref, "rational billiard")

    return check


def _floor_check(p, q, u):
    return lambda word: _expect(word, O.rational_mechanical(p, q, u, len(word)), "floor formula")


def _tie_extra(word):
    ref = O.periodic_prefix("122", len(O.erase_letter(word, "0")))
    return _expect(O.erase_letter(word, "0"), ref, "erasing 0 from the tie billiard")


def tie_kinds():
    def seeded_tie(rng):
        coords = [(rng.randint(1, 3), 1), (rng.randint(1, 3), 2), (rng.randint(1, 3), 2)]
        d = ",".join(_coord_text(c, s) for c, s in coords)
        return _billiard(d, "0,0,0"), _sqrt_check(coords)

    def random_rational(rng):
        d = [rng.randint(1, 9) for _ in range(3)]
        q = rng.randint(2, 9)
        rho = [O.Fraction(rng.randrange(q), q) for _ in range(3)]
        text = ",".join(str(r) for r in rho)
        return _billiard(",".join(map(str, d)), text), _rational_check(d, rho)

    def random_slope(rng):
        q = rng.randint(5, 40)
        p, u = rng.randint(1, q - 1), rng.randrange(q)
        return _mechanical(f"{p}/{q}", f"{u}/{q}"), _floor_check(p, q, u)

    return [
        StreamKind("billiard-tie-1-r2-2r2", _fixed(
            _billiard("1,sqrt(2),2*sqrt(2)", "0,0,0"),
            _sqrt_check([(1, 1), (1, 2), (2, 2)], extra=_tie_extra))),
        StreamKind("billiard-3-5-7", _fixed(
            _billiard("3,5,7", "0,0,0"), _sqrt_check([(3, 1), (5, 1), (7, 1)]))),
        StreamKind("billiard-1-1-0", _fixed(
            _billiard("1,1,0", "0,1/2,0"), _rational_check([1, 1, 0], [0, O.Fraction(1, 2), 0]))),
        StreamKind("billiard-seeded-tie", seeded_tie),
        StreamKind("billiard-random-rational", random_rational),
        StreamKind("mechanical-3/8", _fixed(_mechanical("3/8"), _floor_check(3, 8, 0))),
        StreamKind("mechanical-5/13", _fixed(_mechanical("5/13"), _floor_check(5, 13, 0))),
        StreamKind("mechanical-random-rational", random_slope),
    ]


class StreamWorkload:
    """One live stream of each kind; an operation extends every one of them
    by CHUNK letters, so each operation has the same mix of kinds.

    A round builds a fresh stream of each kind, extends them together to
    `length` letters and checks each one whole.  Every round has the same
    operations at the same stream positions, so neither the seed nor the
    point where a run stops changes the mix of latencies; the seed draws
    each round's starting points, coefficients and slopes.
    """

    unit = "letters"
    length = 1536

    def __init__(self, kinds, warm_kinds):
        self.kinds = kinds
        self.warm_kinds = warm_kinds

    def setup(self, rng):
        # Warm-up streams use other square roots than the timed ones, so the
        # exact-number bound cache starts cold for every timed key.
        for kind in self.warm_kinds:
            build, check = kind.make(rng)
            word = build().prefix(256)
            if check(word):
                raise RuntimeError(f"warm-up stream {kind.name} is wrong: {check(word)}")

    def ops(self, rng):
        while True:
            live = [self._fresh(kind, rng) for kind in self.kinds]
            for pos in range(self.length // CHUNK):
                if any(state["done"] for state in live):
                    break  # a failed operation ends its round
                op = self._advance(live)
                op.boundary = pos == 0
                yield op

    def _fresh(self, kind, rng):
        build, check = kind.make(rng)
        return {
            "kind": kind, "build": build, "check": check, "stream": None,
            "word": "", "target": self.length, "done": False,
        }

    def _advance(self, live):
        wants = [min(len(state["word"]) + CHUNK, state["target"]) for state in live]
        units = sum(want - len(state["word"]) for state, want in zip(live, wants))

        def run():
            words = []
            for state, want in zip(live, wants):
                if state["stream"] is None:
                    state["stream"] = state["build"]()
                words.append(state["stream"].prefix(want))
            return words

        def check(words):
            for state, word in zip(live, words):
                state["word"] = word
            for state, want, word in zip(live, wants, words):
                msg = None if len(word) == want else "short prefix"
                if msg is None and want == state["target"]:
                    state["done"] = True
                    msg = state["check"](word)
                if msg:
                    return f"{state['kind'].name}: {msg}"
            return None

        def failed():
            for state in live:
                state["done"] = True

        return Op(run, check, units, "advance-all-streams", on_failure=failed)


def exact_irrational():
    def warm_billiard(rng):
        return _billiard("1,sqrt(7),sqrt(11)", "0,0,0"), _sqrt_check([(1, 1), (1, 7), (1, 11)])

    def warm_mech(rng):
        return _mechanical("sqrt(19)-4"), _standard_check(-4, 19, 1)

    return StreamWorkload(
        irrational_kinds(), [StreamKind("warm-b", warm_billiard), StreamKind("warm-m", warm_mech)]
    )


def exact_ties():
    def warm_tie(rng):
        return _billiard("1,sqrt(7),3*sqrt(7)", "0,0,0"), _sqrt_check([(1, 1), (1, 7), (3, 7)])

    def warm_rat(rng):
        return _billiard("2,3,4", "0,1/3,0"), _rational_check([2, 3, 4], [0, O.Fraction(1, 3), 0])

    def warm_mech(rng):
        return _mechanical("2/7", "1/7"), _floor_check(2, 7, 1)

    return StreamWorkload(
        tie_kinds(),
        [StreamKind("warm-t", warm_tie), StreamKind("warm-r", warm_rat),
         StreamKind("warm-m", warm_mech)],
    )


# -- long-prefix analysis -----------------------------------------------------------

MAX_N = 64
MEMBER_SPEC = "0=02,1=10,2="


class AnalysisWorkload:
    """Analyzers at max_n = 64 on prefixes of four morphic words.

    Each operation pulls a fresh prefix from the library's morphic streams
    (the Fibonacci fixed point and its images under `apply_stream`), so no
    exact-number code runs, and feeds it to one analyzer.  Each round runs
    every (word, analyzer) pair once in a seeded order on one prefix length;
    the lengths of successive rounds follow a seeded golden-ratio sequence,
    so a few rounds already spread evenly over the length range.
    """

    unit = "analyzed letters"
    min_len, max_len = 2560, 3584
    specs = {
        "member": (MEMBER_SPEC,),
        "psi3": (O.format_spec(O.psi_images(3)),),
        "refuted": ("0=0,1=1,2=012", MEMBER_SPEC),  # composed outer, inner
    }

    def setup(self, rng):
        fib = O.fibonacci_word(self.max_len)
        self.words = {"fibonacci": fib}
        for name, specs in self.specs.items():
            images = O.parse_spec(specs[0])
            for spec in specs[1:]:
                images = O.compose_images(images, O.parse_spec(spec))
            self.words[name] = O.apply_images(images, fib)
        # Warm-up: one small round on the image under psi(2), not a timed word.
        lib = _lib()
        small = lib.apply_stream(lib.psi(2).psi, lib.fibonacci_stream()).prefix(600)
        lib.wse_verdict(small, MAX_N)
        lib.balance_order(small, MAX_N)
        lib.sturmian_verdict(lib.complexity(fib[:600], MAX_N), lib.balance_order(fib[:600], MAX_N))

    def ops(self, rng):
        pairs = [("fibonacci", a) for a in ("complexity", "balance", "sturmian")]
        pairs += [(w, a) for w in ("member", "psi3", "refuted")
                  for a in ("wse", "complexity", "balance")]
        phase = rng.random()
        while True:
            phase = (phase + 0.6180339887) % 1
            length = self.min_len + int(phase * (self.max_len - self.min_len))
            rng.shuffle(pairs)
            for pos, (word_name, analyzer) in enumerate(pairs):
                op = self._op(word_name, analyzer, length)
                op.boundary = pos == 0
                yield op

    def _prefix(self, word_name, length):
        lib = _lib()
        stream = lib.fibonacci_stream()
        if word_name != "fibonacci":
            morphisms = [lib.parse_morphism(spec) for spec in self.specs[word_name]]
            f = morphisms[0]
            for inner in morphisms[1:]:
                f = lib.compose(f, inner)
            stream = lib.apply_stream(f, stream)
        return stream.prefix(length)

    def _op(self, word_name, analyzer, length):
        lib = _lib()
        analyze = {
            "complexity": lambda w: lib.complexity(w, MAX_N),
            "balance": lambda w: lib.balance_order(w, MAX_N),
            "sturmian": lambda w: lib.sturmian_verdict(
                lib.complexity(w, MAX_N), lib.balance_order(w, MAX_N)),
            "wse": lambda w: lib.wse_verdict(w, MAX_N),
        }[analyzer]
        expected = self.words[word_name][:length]

        def run():
            word = self._prefix(word_name, length)
            return word, analyze(word)

        def check(outcome):
            word, result = outcome
            if word != expected:
                return "morphic stream prefix differs from the reference word"
            if analyzer == "complexity":
                return _check_complexity(word_name, word, result)
            if analyzer == "balance":
                return _check_balance(word_name, word, result)
            if analyzer == "sturmian":
                return _check_sturmian(word, result)
            return _check_wse(word_name, word, result)

        return Op(run, check, length, f"{analyzer}:{word_name}")


def _check_complexity(word_name, word, profile):
    counts = O.factor_counts(word, MAX_N)
    if profile.counts != counts:
        return "complexity differs from the sorted-suffix count"
    if word_name == "fibonacci" and any(counts[n] != n + 1 for n in counts):
        return "Fibonacci prefix without P(n) = n + 1"
    return None


BALANCE_ORDER = {"fibonacci": 1, "member": 2, "psi3": 2}


def _check_balance(word_name, word, profile):
    if profile.imbalance != O.imbalances(word, MAX_N):
        return "imbalance profile differs from the window sums"
    known = BALANCE_ORDER.get(word_name)
    if known is not None and profile.order != known:
        return f"balance order {profile.order}, known {known}"
    return None


def _check_sturmian(word, verdict):
    consistent = O.sturmian_expectation(word, MAX_N)[0]
    if not consistent or (verdict.consistent, verdict.coverage) != (True, MAX_N):
        return "Fibonacci prefix not reported Sturmian-consistent up to 64"
    return None


def _check_wse(word_name, word, verdict):
    per, witness = O.wse_expectation(word, MAX_N)
    if word_name == "refuted":
        if verdict.consistent or "P(2)=4" not in (verdict.witness or ""):
            return "refuted image without the P(2)=4 witness"
    elif not verdict.consistent:
        return f"member image refuted: {verdict.witness}"
    if verdict.witness != witness:
        return f"witness {verdict.witness!r}, expected {witness!r}"
    for letter, (consistent, sub_witness, coverage) in per.items():
        got = verdict.per_erasure[letter]
        if (got.consistent, got.witness, got.coverage) != (consistent, sub_witness, coverage):
            return f"erasure {letter} verdict differs from the reference"
    return None


# -- decider corpus -------------------------------------------------------------------

BALL_TOTAL = 10
KNOWN_MEMBERS = ("0=02,1=10,2=", "0=0102,1=01,2=", "0=01,1=02,2=")
PERMUTATIONS = ("0=0,1=2,2=1", "0=2,1=1,2=0", "0=1,1=0,2=2", "0=1,1=2,2=0")
COMPOSITE = ("0=0102,1=01,2=", "0=01,1=02,2=", "0=01,1=02,2=")  # f, g, h
DEEP_BELOW = (200, 450, 700)
DEEP_ABOVE = (1525, 1750, 1975)  # with the +-25 jitter, k >= 1500
BATCH = (  # kind, operations per batch of 500
    ("st-product", 175), ("st-perturbed-small", 50), ("st-perturbed-large", 25),
    ("mse-random", 125), ("mse-product", 50), ("primality", 20), ("psi", 5),
    ("intercalate", 50),
)
ROUND_BATCHES = 100  # batches of 500 decisions in a round, after one deep pair


class DecideWorkload:
    """Many small membership decisions, plus deep chains 0=0,1=0^k1.

    A round is one pair of deep chains, one on each side of the recursion
    limit of the recursive decider (the sizes cycle through DEEP_BELOW and
    DEEP_ABOVE), then ROUND_BATCHES batches of small decisions.  Runs hold
    whole rounds, so the share of deep chains, and of the failures they
    cause, is the same in every run: the chain with k >= 1500 raises
    RecursionError at the seed and is recorded as the known defect.
    """

    unit = "decisions"

    def setup(self, rng):
        self.ball = O.generator_ball(BALL_TOTAL)
        self.small_members = sorted(self.ball)
        self.members = [O.parse_spec(s) for s in KNOWN_MEMBERS + PERMUTATIONS]
        self.members += [O.psi_images(n) for n in (1, 2, 3)]
        lib = _lib()
        for op in self._batch(rng, 100):
            if op.check(op.run()):
                raise RuntimeError(f"warm-up decision {op.kind} is wrong")
        lib.st_membership(lib.Morphism({"0": "0", "1": "0" * 50 + "1"}))

    def ops(self, rng):
        index = 0
        while True:
            jitter = rng.randint(-25, 25)
            first = self._deep(DEEP_BELOW[index % len(DEEP_BELOW)] + jitter)
            first.boundary = True
            yield first
            yield self._deep(DEEP_ABOVE[index % len(DEEP_ABOVE)] + jitter)
            for _ in range(ROUND_BATCHES):
                for op in self._batch(rng, 500):
                    op.boundary = False
                    yield op
            index += 1

    def _batch(self, rng, size):
        kinds = []
        for kind, count in BATCH:
            kinds += [kind] * (count * size // 500)
        rng.shuffle(kinds)
        for pos, kind in enumerate(kinds):
            op = getattr(self, "_" + kind.replace("-", "_"))(rng)
            op.boundary = pos == 0
            yield op

    # -- Sturmian monoid ------------------------------------------------------------

    def _st_op(self, images, kind, known_defect=None):
        lib = _lib()
        f = lib.Morphism(dict(images))
        return Op(lambda: lib.st_membership(f), lambda r: self._check_st(images, r), 1,
                  kind, known_defect)

    def _check_st(self, images, result):
        key = (images["0"], images["1"])
        small = len(key[0]) + len(key[1]) <= BALL_TOTAL
        if hasattr(result, "factors"):
            if O.recompose_factors(result.factors) != images:
                return "certificate does not recompose to the input"
            if small and key not in self.ball:
                return "accepted a product outside the generator ball"
            return None
        if "" in key:
            return None if result.reason == "erasing" else f"reason {result.reason}, not erasing"
        det = O.determinant2(images)
        if det not in (-1, 1):
            return None if result.reason == "determinant" else f"reason {result.reason}, det {det}"
        if not small:
            return "rejection too large to confirm by the generator ball"
        return "rejected a member of the generator ball" if key in self.ball else None

    def _st_product(self, rng):
        factors = [rng.choice(("E", "phi", "phit")) for _ in range(rng.randint(1, 10))]
        return self._st_op(O.recompose_factors(factors), "st-product")

    def _st_perturbed_small(self, rng):
        im0, im1 = rng.choice(self.small_members)
        images = {"0": im0, "1": im1}
        letter = rng.choice("01")
        w = images[letter]
        move = rng.randrange(3)
        if move == 0 and len(w) > 1:  # swap two letters
            i, j = sorted(rng.sample(range(len(w)), 2))
            w = w[:i] + w[j] + w[i + 1 : j] + w[i] + w[j + 1 :]
        elif move == 1:  # flip one letter
            i = rng.randrange(len(w))
            w = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]
        else:  # drop one letter
            i = rng.randrange(len(w))
            w = w[:i] + w[i + 1 :]
        images[letter] = w
        return self._st_op(images, "st-perturbed-small")

    def _st_perturbed_large(self, rng):
        while True:
            factors = [rng.choice(("E", "phi", "phit")) for _ in range(rng.randint(8, 12))]
            images = O.recompose_factors(factors)
            letter = rng.choice("01")
            w = images[letter]
            i = rng.randrange(len(w))
            images[letter] = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]
            # Only flips that break the determinant are verifiable at this size.
            if O.determinant2(images) not in (-1, 1):
                return self._st_op(images, "st-perturbed-large")

    def _deep(self, k):
        images = {"0": "0", "1": "0" * k + "1"}
        defect = "RecursionError" if k >= 1500 else None
        op = self._st_op(images, f"deep-chain-{'above' if defect else 'below'} k={k}", defect)
        op.boundary = False
        return op

    # -- erasure-preserving ternary morphisms ----------------------------------------

    def _mse_op(self, images, kind, member=False):
        lib = _lib()
        f = lib.Morphism(dict(images))

        def check(verdict):
            if member and not verdict.accepted:
                return f"product of members rejected: {verdict.reason}"
            return self._check_mse(images, verdict)

        return Op(lambda: lib.mse_membership(f), check, 1, kind)

    def _check_mse(self, images, verdict):
        if sorted(images.values()) == ["0", "1", "2"]:
            return None if verdict.kind == "permutation" else f"permutation judged {verdict.kind}"
        erased = [a for a in "012" if images[a] == ""]
        if not erased:
            return None if verdict.reason == "not-permutation-no-erased-letter" else \
                f"non-erasing morphism judged {verdict.kind}"
        i = erased[0]
        if O.length_filter_fails(images, i):
            return None if verdict.reason == "length-filter" else \
                f"length filter should reject, got {verdict.kind} {verdict.reason}"
        for j in "012":
            proj = O.projection(images, i, j)
            key = (proj["0"], proj["1"])
            if len(key[0]) + len(key[1]) > BALL_TOTAL:
                if verdict.kind == "erasing-member":
                    continue
                return "rejection too large to confirm by the generator ball"
            if key not in self.ball:
                expected = f"projection-{j}-not-sturmian"
                return None if verdict.reason == expected else \
                    f"expected {expected}, got {verdict.kind} {verdict.reason}"
        if verdict.kind != "erasing-member" or verdict.erased != i:
            return f"member judged {verdict.kind} {verdict.reason}"
        for j, cert in verdict.certificates.items():
            if O.recompose_factors(cert.factors) != O.projection(images, i, j):
                return f"certificate for erasure {j} does not recompose"
        return None

    def _mse_random(self, rng):
        images = {a: "".join(rng.choice("012") for _ in range(rng.randint(0, 4))) for a in "012"}
        images[rng.choice("012")] = ""
        return self._mse_op(images, "mse-random")

    def _mse_product(self, rng):
        images = {"0": "0", "1": "1", "2": "2"}
        for _ in range(rng.randint(1, 3)):
            images = O.compose_images(images, rng.choice(self.members))
        return self._mse_op(images, "mse-product", member=True)

    # -- primality, psi, intercalation ------------------------------------------------

    def _primality(self, rng):
        lib = _lib()
        if rng.random() < 0.25:
            f, g, h = (O.parse_spec(s) for s in COMPOSITE)

            def check(v):
                if v.kind != "composite-certified":
                    return f"composite judged {v.kind}"
                if (v.g_factor.images, v.h_factor.images) != (g, h):
                    return "composite factors differ from the known split"
                return None if O.compose_images(g, h) == f else "g o h differs from f"

            m = lib.Morphism(f)
            return Op(lambda: lib.primality(m), check, 1, "primality-composite")
        n = rng.randint(1, 8)
        m = lib.Morphism(O.psi_images(n))
        return Op(lambda: lib.primality(m),
                  lambda v: None if v.kind == "prime-certified" else f"psi({n}) judged {v.kind}",
                  1, "primality-psi")

    def _psi(self, rng):
        lib = _lib()
        n = rng.randint(1, 8)

        def check(fam):
            ref = O.psi_images(n)
            if fam.psi.images != ref:
                return f"psi({n}) differs from the recurrence"
            for comp, letter in ((fam.f, "2"), (fam.g, "1"), (fam.h, "0")):
                if any(comp.images[a] != O.erase_letter(ref[a], letter) for a in "012"):
                    return f"psi({n}) component for erasure {letter} is wrong"
            return None

        return Op(lambda: lib.psi(n), check, 1, "psi")

    def _intercalate(self, rng):
        lib = _lib()
        word = "".join(rng.choice("012") for _ in range(rng.randint(20, 200)))
        u, v, w = (O.erase_letter(word, a) for a in "210")
        return Op(lambda: lib.intercalate(u, v, w),
                  lambda r: None if r == word else "intercalation does not round-trip",
                  1, "intercalate")
