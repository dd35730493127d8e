import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest

from sturmian_erasures import (
    BilliardConfig,
    CrossingEvent,
    apply_stream,
    balance_order,
    billiard_word,
    classify,
    complexity,
    erase,
    event_stream,
    fibonacci_stream,
    parse_morphism,
    parse_number,
    rational,
    sqrt,
    sturmian_verdict,
    wse_verdict,
)
import sturmian_erasures.billiard as billiard_module
from sturmian_erasures.billiard import _config_times, _Crossings, _lines, _Ring
from sturmian_erasures.exactnum import _make, _sign_of
from sturmian_erasures.words import WordStream

from conftest import batches_alone, sort_sizes

THETA = parse_number("(1+sqrt(5))/2")
GOLDEN = BilliardConfig(
    d=(rational(1), THETA - rational(1), (THETA - rational(1)) ** 2),
    rho=(rational(0), THETA - rational(1), (THETA - rational(1)) ** 2),
)


def _events(config, count):
    return list(itertools.islice(event_stream(config), count))


def _reference_events(config):
    """Naive pairwise ordering: t_a < t_b is decided as the sign of
    (m_a - rho_a)*d_b - (m_b - rho_b)*d_a in exact SqrtBasisNumber arithmetic,
    and each t is the quotient (m - rho_i)/d_i."""
    moving = [i for i in range(3) if config.d[i].sign() > 0]
    num = [
        rational(0 if config.rho[i].sign() == 0 else 1) - config.rho[i] for i in moving
    ]
    while True:
        best = [0]
        for pos in range(1, len(moving)):
            cmp = (
                num[pos] * config.d[moving[best[0]]]
                - num[best[0]] * config.d[moving[pos]]
            ).sign()
            if cmp < 0:
                best = [pos]
            elif cmp == 0:
                best.append(pos)
        t = num[best[0]] / config.d[moving[best[0]]]
        yield CrossingEvent(t=t, omega=tuple(moving[pos] for pos in best))
        for pos in best:
            num[pos] = num[pos] + rational(1)


# Every crossing of coordinate 1 coincides with every second crossing of
# coordinate 2: an exact irrational tie, where no enclosure can decide.
TIE = BilliardConfig(d=(1, sqrt(2), parse_number("2*sqrt(2)")), rho=(0, 0, 0))

# The same ties from quadratic starts: at each tie the two enclosures have
# different lower bounds, the one of coordinate 2 the smaller, so only an
# exact comparison puts the fused block in coordinate order.
TIE_SHIFTED = BilliardConfig(
    d=(1, parse_number("sqrt(2)/4"), parse_number("sqrt(2)/2")),
    rho=(0, parse_number("1-sqrt(2)/2"), parse_number("2-sqrt(2)")),
)

# Every config used elsewhere in this file, the tie configs, and a rational
# direction, where every enclosure is exact.
EQUIVALENCE_CONFIGS = [
    GOLDEN,
    BilliardConfig(d=(1, 1, 0), rho=(0, 0, 0)),
    BilliardConfig(d=(1, 1, 0), rho=(0, parse_number("1/2"), 0)),
    BilliardConfig(d=(sqrt(2), 1, sqrt(3)), rho=(0, 0, 0)),
    BilliardConfig(d=(1, 2, 0), rho=(0, parse_number("1/3"), 0)),
    BilliardConfig(d=(0, 1, THETA), rho=(0, 0, 0)),
    BilliardConfig(
        d=(1, sqrt(2), sqrt(3)),
        rho=(0, parse_number("sqrt(2)/2"), parse_number("sqrt(3)/3")),
    ),
    BilliardConfig(d=(2, 3, 6), rho=(0, 0, 0)),
    BilliardConfig(d=(1, 1, sqrt(2)), rho=(0, 0, 0)),
    BilliardConfig(d=(0, 0, 1), rho=(0, 0, 0)),
    BilliardConfig(d=(0, sqrt(2), sqrt(8)), rho=(0, 0, 0)),
    TIE,
    TIE_SHIFTED,
    BilliardConfig(d=(3, 5, 7), rho=(0, 0, 0)),
]

# All three coordinates cross at one time t > 0 on two lines: 0 and 2 tie
# on one, and coordinate 1, on the other, has the least lower bound, so its
# tag sorts before the tie although it belongs between the two.  The tied
# pair is on rational rows (t = 1) or on irrational ones (t = 1/sqrt(2)).
CROSS_LINE_TIES = [
    BilliardConfig(d=(1, sqrt(2), 1), rho=(0, parse_number("2-sqrt(2)"), 0)),
    BilliardConfig(d=(sqrt(2), sqrt(3), sqrt(2)), rho=(0, parse_number("2-sqrt(6)/2"), 0)),
]


@pytest.mark.parametrize("config", EQUIVALENCE_CONFIGS + CROSS_LINE_TIES)
def test_fast_path_matches_reference_ordering(config):
    expected = list(itertools.islice(_reference_events(config), 400))
    assert _events(config, 400) == expected
    word = "".join("".join(map(str, e.omega)) for e in expected)
    assert billiard_word(config).prefix(400) == word[:400]


def _exact_step(keys, rows, ms):
    """The next event's coordinates and time row, and ms moved on past them:
    coordinate i next crosses at the row ms[i]*X - Y over keys, (X, Y) =
    rows[i], and the least rows win by the exact sign of their differences.
    No enclosure, tag or line class: the exact per-event reference for the
    batched letters."""
    times = {i: {key: ms[i] * x.get(key, 0) - y.get(key, 0) for key in keys}
             for i, (x, y) in rows.items()}
    best = []
    for i, row in times.items():
        sign = _sign_of({key: row[key] - times[best[0]][key] for key in keys}) if best else -1
        if sign < 0:
            best = [i]
        elif sign == 0:
            best.append(i)
    for i in best:
        ms[i] += 1
    return best, times[best[0]]


def _common_scale(*xs):
    """The integer coefficient dicts of den*x for each x, and den > 0."""
    den = math.lcm(*(x._den for x in xs))
    return [{b: c * (den // x._den) for b, c in x._ints.items()} for x in xs], den


def _step_events(config, count, ms=None):
    """The events of _exact_step, one exactly ordered event at a time, apart
    from the batched merge, with x_i and y_i as integer rows over one den;
    from the crossings ms = {i: m} when given, else from the first ones."""
    times = _config_times(config)
    ints, den = _common_scale(*itertools.chain(*times.values()))
    keys, rows = sorted(set().union(*ints)), dict(zip(times, zip(ints[::2], ints[1::2])))
    ms = dict(ms or {i: 1 if y else 0 for i, (_, y) in rows.items()})
    for _ in range(count):
        block, row = _exact_step(keys, rows, ms)
        yield CrossingEvent(t=_make(row, den), omega=tuple(block))


def _event_word(config, length):
    """The word of _step_events, built one exactly ordered event at a time."""
    events = _step_events(config, length)
    return "".join("".join(map(str, e.omega)) for e in events)[:length]


def _stepped_prefix(config, length, step):
    stream = billiard_word(config)
    for at in range(step, length, step):
        assert len(stream.prefix(at)) == at
    return stream.prefix(length)


@pytest.mark.parametrize("config", EQUIVALENCE_CONFIGS + CROSS_LINE_TIES)
def test_batched_word_matches_exact_events(config):
    # Requests of 1, 64 and 4099 letters end inside batches and inside fused
    # blocks, so later batches resume from every kind of cut.
    expected = _event_word(config, 20_000)
    for step in (1, 64, 4099):
        assert _stepped_prefix(config, 20_000, step) == expected


def _wide_start(exponent, radicand):
    """frac(2**exponent * sqrt(radicand)): a start in [0, 1) whose integer
    coefficients make its enclosure at 64 bits a sizeable share of a step."""
    x = 2**exponent * sqrt(radicand)
    return x - x.floor()


U21, U24 = ((rational(1) + sqrt(2)) ** power for power in (21, 24))
WIDE_CONFIGS = [
    # x_i = 1/d_i has integer coefficients far larger than its value, so at
    # 64 bits its enclosure would widen by one step every 4,400 crossings
    # (U21) or every 22 (U24): the precision rule starts above 64 bits.
    BilliardConfig(d=(0, U21, U21 * sqrt(2)), rho=(0, 0, 0)),
    BilliardConfig(d=(1, U21, U21 * sqrt(3)), rho=(0, parse_number("1/3"), sqrt(2) - 1)),
    BilliardConfig(d=(0, U24, U24 * sqrt(2)), rho=(0, 0, 0)),
    # Starts whose enclosures at 64 bits are a quarter to a half step wide,
    # so the precision rule starts above 64 bits.
    BilliardConfig(d=(1, sqrt(2), sqrt(3)), rho=(_wide_start(62, 2), 0, 0)),
    BilliardConfig(d=(2, 2, 2 * sqrt(2)), rho=(_wide_start(62, 3), 0, _wide_start(62, 3))),
]


@pytest.mark.parametrize("config", WIDE_CONFIGS)
def test_wide_enclosures_match_exact_events(config):
    for step in (1, 61):
        assert _stepped_prefix(config, 2000, step) == _event_word(config, 2000)


@pytest.mark.parametrize("config", WIDE_CONFIGS)
def test_wide_batches_commit_hundreds_of_letters(config):
    # The precision follows the rows, so no batch shrinks to a single event.
    crossings = _Crossings(_config_times(config))
    for _ in range(60):
        assert len(crossings.letters(256)) >= 200


@pytest.mark.parametrize("config", EQUIVALENCE_CONFIGS + WIDE_CONFIGS + CROSS_LINE_TIES)
def test_event_stream_matches_step_events(config):
    # Both the times and the fused blocks of the grouped batch agree with
    # the exact per-event path.
    assert _events(config, 2000) == list(_step_events(config, 2000))


def test_batched_word_property():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    # Powers of the unit 1+sqrt(2) have coefficients far larger than their
    # values, so the batches raise the precision; the last start puts such
    # coefficients into the y rows.
    directions = st.sampled_from(
        ["0", "sqrt(2)", "sqrt(3)", "2*sqrt(2)", "(sqrt(5)-1)/2", "54608393+38613965*sqrt(2)",
         "77227930+54608393*sqrt(2)", "768398401+543339720*sqrt(2)"]
    ) | st.builds("{}/{}".format, st.integers(1, 6), st.integers(1, 4))
    starts = st.sampled_from(
        ["sqrt(2)-1", "sqrt(3)-1", "(sqrt(5)-1)/2", "sqrt(2)/2", "sqrt(3)/3", "2-sqrt(3)",
         "2-sqrt(2)", "1-sqrt(2)/2", "100000000000*sqrt(2)-141421356237"]
    ) | st.builds(lambda q, p: f"{p % q}/{q}", st.integers(1, 7), st.integers(0, 6))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(directions, min_size=3, max_size=3), st.lists(starts, min_size=3, max_size=3),
           st.integers(1, 700))
    def check(d, rho, step):
        assume(any(x != "0" for x in d))
        config = BilliardConfig(d=tuple(map(parse_number, d)), rho=tuple(map(parse_number, rho)))
        assert _stepped_prefix(config, 1500, step) == _event_word(config, 1500)

    check()


def _config(d, rho):
    return BilliardConfig(d=tuple(map(parse_number, d)), rho=tuple(map(parse_number, rho)))


# Configs with two or three coordinates on one rational line: their x rows
# are multiples of one row v and their y rows differ by multiples of v.
LINE_CONFIGS = [
    TIE,
    TIE_SHIFTED,
    # The seeded tie family (c1, c2*sqrt(2), c3*sqrt(2)) from the origin.
    _config(["2", "3*sqrt(2)", "sqrt(2)"], ["0", "0", "0"]),
    _config(["3", "2*sqrt(2)", "3*sqrt(2)"], ["0", "0", "0"]),
    _config(["1", "sqrt(2)", "sqrt(2)"], ["0", "0", "0"]),
    # Distinct nonzero offsets on the line, irrational and rational.
    _config(["1", "sqrt(2)", "2*sqrt(2)"], ["0", "2*sqrt(2)-2", "4*sqrt(2)-5"]),
    _config(["sqrt(2)", "2*sqrt(2)", "3*sqrt(2)"], ["1/2", "0", "1/3"]),
]
# Proportional x rows whose y rows differ by v/4 + 10**-24, off the line:
# crossings 10**-24 apart, closer than any enclosure, but never equal.
OFF_LINE = _config(
    ["1", "sqrt(2)", "2*sqrt(2)"],
    ["0", "sqrt(2)-1", "2*sqrt(2)-2+sqrt(2)/500000000000000000000000"],
)


@pytest.mark.parametrize(
    "config",
    [
        BilliardConfig(d=(3, 5, 7), rho=(0, 0, 0)),
        BilliardConfig(
            d=(1, sqrt(2), sqrt(3)),
            rho=(0, parse_number("sqrt(2)/2"), parse_number("sqrt(3)/3")),
        ),
        OFF_LINE,
    ]
    + LINE_CONFIGS
    + CROSS_LINE_TIES,
)
def test_advanced_enclosures_match_reference_far_out(config):
    # Each crossing widens its coordinate's enclosure, so check far from the start.
    expected = list(itertools.islice(_reference_events(config), 3000))
    assert _events(config, 3000) == expected


def _line_split(config):
    crossings = _Crossings(_config_times(config))
    split = {}
    for i, (cls, _, _) in zip(crossings.moving, crossings.lines):
        split.setdefault(cls, []).append(i)
    return list(split.values())


def test_line_class_split():
    assert _line_split(TIE) == [[0], [1, 2]]
    assert _line_split(TIE_SHIFTED) == [[0], [1, 2]]
    assert _line_split(BilliardConfig(d=(1, sqrt(2), sqrt(3)), rho=(0, 0, 0))) == [[0], [1], [2]]
    assert _line_split(LINE_CONFIGS[-1]) == [[0, 1, 2]]
    assert _line_split(OFF_LINE) == [[0], [1], [2]]
    assert _line_split(BilliardConfig(d=(3, 5, 7), rho=(0, 0, 0))) == [[0, 1, 2]]
    # One direction, but y_1 is off the line of y_0 and y_2 by sqrt(2)/10.
    assert _line_split(_config(["3", "5", "7"], ["0", "sqrt(2)/2", "0"])) == [[0, 2], [1]]


@pytest.mark.parametrize("config", LINE_CONFIGS + [OFF_LINE])
def test_line_order_matches_exact_sign(config):
    # Second method: on one line, the sign of n_a - n_b is the exact sign of
    # the difference of the two time rows, and the enclosures hold the time.
    crossings = _Crossings(_config_times(config))
    table, lines, counters = crossings.table, crossings.lines, crossings.counters
    for a, b in itertools.product(range(len(table)), repeat=2):
        if lines[a][0] != lines[b][0]:
            continue
        for ja, jb in itertools.product(range(41), repeat=2):
            ma, mb = counters[a] + ja, counters[b] + jb
            na, nb = ma * lines[a][1] - lines[a][2], mb * lines[b][1] - lines[b][2]
            row = {key: ma * xa - ya - mb * xb + yb
                   for (key, xa, ya), (_, xb, yb) in zip(table[a], table[b])}
            sign = _sign_of(row)
            assert (na > nb) - (na < nb) == sign
            lo_a = crossings.lo[a] + ja * crossings.steps[a]
            lo_b = crossings.lo[b] + jb * crossings.steps[b]
            assert (lo_a > lo_b) - (lo_a < lo_b) == sign
            # _exact reads the same order off lower bounds tagged from 0.
            tag_a, tag_b = (64 * lo + crossings.codes[pos] for lo, pos in [(lo_a, a), (lo_b, b)])
            assert crossings._exact(tag_a, tag_b, 0) == (sign or a - b)
    for pos, row in enumerate(table):
        s, m, (a, b) = crossings.steps[pos], counters[pos], crossings.spans[pos]
        for j in range(41):
            scaled = {key: (m + j) * x - y << crossings.k for key, x, y in row}
            # Only lower bounds are kept: the upper end is lo + a + m*b.
            lo = crossings.lo[pos] + j * s
            hi = lo + a + (m + j) * b
            assert _sign_of({**scaled, 1: scaled.get(1, 0) - lo}) >= 0
            assert _sign_of({**scaled, 1: scaled.get(1, 0) - hi}) <= 0


# Rational directions from rational starts: every enclosure is exact.
RATIONAL_CONFIGS = [
    _config(["3", "5", "7"], ["0", "1/2", "1/3"]),
    _config(["2", "3", "4"], ["0", "1/3", "0"]),
    _config(["5", "8", "0"], ["1/13", "0", "0"]),
]
RULE_CONFIGS = LINE_CONFIGS + EQUIVALENCE_CONFIGS + WIDE_CONFIGS + [OFF_LINE] + RATIONAL_CONFIGS
# _exact_calls(config, 20_000, overlapping=True) when every stream started
# at 64 bits, as before the precision rule; OFF_LINE's crossings 10**-24
# apart overlap at any precision.
FALLBACKS_AT_64_BITS = [
    1, 2, 1, 1, 1, 0, 0,
    0, 0, 0, 2, 0, 1, 0, 0, 1, 0, 0, 1, 2, 0,
    1, 0, 1, 1, 0,
    5405,
    0, 0, 0,
]


def _exact_calls(config, length, overlapping=False):
    """Calls to _exact in the first length letters of letters(256), or only
    those on two crossings whose enclosures overlap, which no precision
    orders."""
    crossings = _Crossings(_config_times(config))
    exact, calls = crossings._exact, []

    def counted(u, v, base):
        bounds = []
        for tag in (u, v):
            pos = crossings.codes.index(tag & 63)
            s, lo, (a, b) = crossings.steps[pos], crossings.lo[pos], crossings.spans[pos]
            j = ((tag >> 6) + base - lo) // s
            bounds.append((lo + j * s, lo + j * s + a + (crossings.counters[pos] + j) * b))
        (lo_a, hi_a), (lo_b, hi_b) = bounds
        if not overlapping or (lo_a <= hi_b and lo_b <= hi_a):
            calls.append((u, v))
        return exact(u, v, base)

    crossings._exact = counted
    done = 0
    while done < length:
        done += len(crossings.letters(256))
    return len(calls)


@pytest.mark.parametrize("config", RULE_CONFIGS)
def test_precision_rule_picks_the_least_k_with_the_margin(config):
    crossings = _Crossings(_config_times(config))
    k, width = crossings.k, crossings.width()
    at_64 = _Crossings(_config_times(config))
    at_64._enclose_at(64)
    s = min(at_64.steps)
    # The widths do not depend on k; the rule scales the 64-bit shortest step.
    assert at_64.width() == width
    need = max(4 * (width + 2), width << 20)
    assert s << k >= need << 64
    assert k == 1 or s << (k - 1) < need << 64
    # The quarter-step certificate holds at k, so the first batch keeps it.
    assert 4 * (width + 1) <= min(crossings.steps)
    crossings.letters(256)
    assert crossings.k == k
    if all(x.is_rational() for x in config.d + config.rho):
        assert width == 0 and k <= 4


@pytest.mark.parametrize(
    "config, parent", zip(RULE_CONFIGS, FALLBACKS_AT_64_BITS), ids=range(len(RULE_CONFIGS))
)
def test_precision_rule_adds_no_exact_fallbacks(config, parent):
    assert _exact_calls(config, 20_000, overlapping=True) <= parent


# _exact_calls(config, 20_000) while compare's line test still stood in
# front of the row sign.  These configs have thousands of tied neighbours
# in that span, which letters() passes by on their tags: a tie that
# reached _exact would cost one exact row sign.
EXACT_CALLS_ON_LINES = [1, 3, 1, 1, 1, 0, 0]


@pytest.mark.parametrize(
    "config, parent", zip(LINE_CONFIGS, EXACT_CALLS_ON_LINES), ids=range(len(LINE_CONFIGS))
)
def test_line_ties_skip_the_exact_test(config, parent):
    assert _exact_calls(config, 20_000) <= parent


# Irrational streams with no line classes: after t = 0 no two crossings
# come within an enclosure width of each other.  From the origin all three
# coordinates cross at t = 0, a cluster of the first batch only.
CLUSTER_FREE = [
    (_config(["1", "sqrt(2)", "sqrt(3)"], ["0", "sqrt(2)/2", "sqrt(3)/3"]), 0),
    (_config(["1", "sqrt(2)", "sqrt(5)"], ["0", "0", "0"]), 1),
]


def _link_builds(config, length, monkeypatch):
    """Link lists built in the first length letters of letters(256)."""
    builds = []

    def counting(data, selectors):
        builds.append(1)
        return itertools.compress(data, selectors)

    monkeypatch.setattr(billiard_module, "compress", counting)
    crossings = _Crossings(_config_times(config))
    done = 0
    while done < length:
        done += len(crossings.letters(256))
    return len(builds)


@pytest.mark.parametrize("config, at_zero", CLUSTER_FREE)
def test_cluster_free_batches_build_no_links(config, at_zero, monkeypatch):
    assert _link_builds(config, 256, monkeypatch) == at_zero
    assert _link_builds(config, 20_000, monkeypatch) == at_zero


@pytest.mark.parametrize("config", LINE_CONFIGS)
def test_line_ties_are_not_links(config, monkeypatch):
    # Thousands of exact ties on one line sit 1 or 2 tags apart, and no
    # other neighbours do, so a batch leaves them out of its links: it
    # walks only links between two lines, here at most the cluster at t = 0,
    # and compares no tie.
    crossings = _Crossings(_config_times(config))
    line = {code: cls for code, (cls, _, _) in zip(crossings.codes, crossings.lines)}
    ties, links, compared = [], [], []

    def recording_bisect_left(merged, sentinel):
        end = bisect.bisect_left(merged, sentinel)
        limit = 64 * crossings.width() + 63
        for u, v in zip(merged, merged[1 : end + 1]):
            (ties if v - u < 3 else links if v - u <= limit else []).append((u, v))
        return end

    exact = crossings._exact

    def recording_exact(u, v, base):
        compared.append((u, v))
        return exact(u, v, base)

    crossings._exact = recording_exact
    monkeypatch.setattr(billiard_module, "bisect_left", recording_bisect_left)
    for _ in range(80):
        crossings.letters(256)
    def tie(u, v):
        return u >> 6 == v >> 6 and line[u & 63] == line[v & 63]

    assert ties and all(tie(u, v) for u, v in ties)
    assert len(links) <= 1 and all(line[u & 63] != line[v & 63] for u, v in links)
    assert not any(tie(u, v) for u, v in compared)


@pytest.mark.parametrize("config", CROSS_LINE_TIES)
def test_a_time_on_two_lines_keeps_coordinate_order(config):
    # The tags sort 1 (code 9) one link ahead of the tie of 0 and 2 (codes
    # 0 and 2) at the third event: the exact test moves 0 back past 1 and
    # then asks whether 2 follows 1, so the event reads 012; the tie of 0
    # and 2 never reaches the exact test.
    crossings = _Crossings(_config_times(config))
    exact, compared = crossings._exact, []

    def recording_exact(u, v, base):
        compared.append((u & 63, v & 63))
        return exact(u, v, base)

    crossings._exact = recording_exact
    assert crossings.codes == [0, 9, 2]
    assert crossings.letters(256)[:6] == "021012"
    assert (9, 0) in compared and (9, 2) in compared
    assert (0, 2) not in compared and (2, 0) not in compared


def test_times_on_two_lines_match_exact_events():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # Two coordinates on one line from the origin, and a third started so
    # that it crosses with them at the m-th crossing of the first: the three
    # meet at one time t > 0, the third in any place.
    slopes = ["1", "2", "sqrt(2)", "2*sqrt(2)", "sqrt(3)", "sqrt(2)/2", "1+sqrt(2)", "(1+sqrt(5))/2"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(slopes), min_size=2, max_size=2, unique=True),
           st.sampled_from(["1", "2", "1/2", "2/3"]), st.integers(1, 3), st.integers(0, 2))
    def check(line, ratio, m, lone):
        a, b = map(parse_number, line)
        x = rational(m) / a * b
        d = [a, a * parse_number(ratio)]
        rho = [rational(0), rational(0)]
        d.insert(lone, b)
        rho.insert(lone, x.floor() + 1 - x if x != x.floor() else rational(0))
        config = BilliardConfig(d=tuple(d), rho=tuple(rho))
        assert billiard_word(config).prefix(1000) == _event_word(config, 1000)

    check()


def test_batch_tags_stay_under_a_bound_set_by_k(monkeypatch):
    tops = []

    def recording_sorted(tags):
        merged = sorted(tags)
        tops.append(merged[-1])
        return merged

    monkeypatch.setattr(billiard_module, "sorted", recording_sorted, raising=False)
    crossings = _Crossings(_config_times(_config(["1", "sqrt(2)", "sqrt(3)"], ["1/3", "1/5", "1/7"])))
    k = crossings.k
    bound = 64 * (max(crossings.steps) + 4112 * min(crossings.steps))
    done = len(crossings.letters(256))
    assert tops[-1] < bound
    while done < 10**6:
        done += len(crossings.letters(4096))
    crossings.letters(4096)
    assert crossings.k == k and max(tops) < bound


def _at_the_least_k(crossings):
    """Re-enclose at the least k with 4*(W + 1) <= s, where W is near a
    quarter step, so clusters are common and some batches end on one."""
    k = 1
    crossings._enclose_at(k)
    while 4 * (crossings.width() + 1) > min(crossings.steps):
        k += 1
        crossings._enclose_at(k)


def test_sentinel_cluster_trim_keeps_the_word(monkeypatch):
    # At the least k with 4*(W + 1) <= s, W is near a quarter step, so
    # clusters are common and some batches end on one: the links into the
    # first sentinel's cluster are popped and its crossings wait for the
    # next batch.
    ends = []

    def recording_bisect_left(merged, sentinel):
        ends.append(bisect.bisect_left(merged, sentinel))
        return ends[-1]

    monkeypatch.setattr(billiard_module, "bisect_left", recording_bisect_left)
    config = _config(["1", "sqrt(2)", "sqrt(3)"], ["1/3", "1/5", "1/7"])
    crossings = _Crossings(_config_times(config))
    _at_the_least_k(crossings)
    word, trims = "", 0
    for _ in range(40):
        batch = crossings.letters(256)
        trims += len(batch) < ends[-1]
        word += batch
    assert trims >= 1
    assert word == _event_word(config, len(word))


def test_sentinel_cluster_trim_keeps_far_batches_exact():
    # Near the start a crossing's enclosure is far narrower than W, which
    # also covers the growth of 4,112 more crossings.  About 40,000
    # crossings out, each enclosure is nearly W wide, so at the least k the
    # crossings around a batch's first sentinel overlap and their lower
    # bounds misorder some of them.  Committing into the sentinel's cluster
    # would then put a crossing ahead of an earlier one past the sentinel:
    # without the trim this word leaves the exact one at letter 9,733.
    config = _config(["1", "sqrt(2)", "sqrt(3)"], ["1/3", "1/5", "1/7"])
    crossings = _Crossings(_config_times(config))
    for _ in range(30):
        crossings.letters(4096)
    ms = dict(zip(crossings.moving, crossings.counters))
    _at_the_least_k(crossings)
    word = "".join(crossings.letters(256) for _ in range(48))
    events = _step_events(config, len(word), ms)
    assert word == "".join("".join(map(str, e.omega)) for e in events)[: len(word)]


def test_tie_config_fuses_events():
    omegas = [e.omega for e in _events(TIE, 400)]
    assert omegas.count((0, 1, 2)) == 1 and omegas.count((1, 2)) > 50


def test_config_validation():
    with pytest.raises(ValueError):
        BilliardConfig(d=(rational(0),) * 3, rho=(rational(0),) * 3)
    with pytest.raises(ValueError):
        BilliardConfig(d=(rational(-1), rational(1), rational(1)), rho=(rational(0),) * 3)
    with pytest.raises(ValueError):
        BilliardConfig(d=(rational(1),) * 3, rho=(rational(1), rational(0), rational(0)))
    with pytest.raises(ValueError):
        BilliardConfig(d=(rational(1), rational(1)), rho=(rational(0), rational(0)))
    ints = BilliardConfig(d=(1, 1, 0), rho=(0, 0, 0))
    assert ints.d[0] == rational(1)
    # Each end of [0, 1), and values within 3e-28 of one.
    near = parse_number("sqrt(2)-1414213562373095048801688724/1000000000000000000000000000")
    for x in (0, 1, near, -near, 1 - near, 1 + near):
        if x in (0, near, 1 - near):
            assert BilliardConfig(d=(1, 1, 1), rho=(0, x, 0)).rho[1] == x
        else:
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
                BilliardConfig(d=(1, 1, 1), rho=(0, x, 0))


def test_fused_events_and_word():
    config = BilliardConfig(d=(1, 1, 0), rho=(0, 0, 0))
    events = _events(config, 3)
    assert [e.omega for e in events] == [(0, 1)] * 3
    assert [e.t for e in events] == [rational(0), rational(1), rational(2)]
    assert billiard_word(config).prefix(8) == "01010101"
    assert str(events[0].t) == "0"


def test_interleaved_events_and_word():
    config = BilliardConfig(d=(1, 1, 0), rho=(0, parse_number("1/2"), 0))
    events = _events(config, 4)
    assert [e.omega for e in events] == [(0,), (1,), (0,), (1,)]
    assert [e.t for e in events] == [
        rational(0),
        parse_number("1/2"),
        rational(1),
        parse_number("3/2"),
    ]
    assert billiard_word(config).prefix(8) == "01010101"


def test_golden_first_events():
    events = _events(GOLDEN, 6)
    assert events[0].omega == (0,) and events[0].t == rational(0)
    assert events[1].omega == (1,)
    assert events[1].t == (rational(1) - (THETA - rational(1))) / (THETA - rational(1))
    assert billiard_word(GOLDEN).prefix(6) == "010201"


def test_event_times_strictly_increase():
    for config in (
        GOLDEN,
        BilliardConfig(d=(1, 1, 0), rho=(0, 0, 0)),
        BilliardConfig(d=(sqrt(2), 1, sqrt(3)), rho=(0, 0, 0)),
    ):
        events = _events(config, 40)
        for a, b in zip(events, events[1:]):
            assert (b.t - a.t).sign() > 0
        assert all(e.t.sign() >= 0 for e in events)


def test_event_times_match_fraction_reference():
    # With d = (1, sqrt(2), sqrt(3)), coordinate i crosses x = m at
    # t = (m - rho_i)/d_i = ((m - rho_i)/(i + 1)) * sqrt(i + 1).
    rho = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    config = BilliardConfig(d=(rational(1), sqrt(2), sqrt(3)), rho=tuple(map(rational, rho)))
    m, last = [1, 1, 1], 0.0
    for event in _events(config, 2000):
        (i,) = event.omega
        q = (m[i] - rho[i]) / (i + 1)
        assert str(event.t) == (str(q) if i == 0 else f"{q}*sqrt({i + 1})")
        assert float(event.t) >= last
        m[i], last = m[i] + 1, float(event.t)
    assert sum(m) == 3 + 2000


def test_event_integrality_invariant():
    for config in (
        GOLDEN,
        BilliardConfig(d=(1, 2, 0), rho=(0, parse_number("1/3"), 0)),
        BilliardConfig(d=(sqrt(2), 1, sqrt(3)), rho=(0, 0, 0)),
    ):
        for event in _events(config, 30):
            for i in range(3):
                x = event.t * config.d[i] + config.rho[i]
                at_integer = x == rational(x.floor())
                moving = config.d[i].sign() > 0
                assert (i in event.omega) == (at_integer and moving)


def test_golden_word_is_morphic_image():
    f = parse_morphism("0=0102,1=01,2=")
    expected = apply_stream(f, fibonacci_stream()).prefix(200)
    assert billiard_word(GOLDEN).prefix(200) == expected


def test_golden_projection_identity():
    w = billiard_word(GOLDEN).prefix(4000)
    for i in range(3):
        d = list(GOLDEN.d)
        rho = list(GOLDEN.rho)
        d[i] = rational(0)
        rho[i] = rational(0)
        projected = BilliardConfig(d=tuple(d), rho=tuple(rho))
        flat = erase(w, str(i))
        assert len(flat) >= 1000
        assert billiard_word(projected).prefix(1000) == flat[:1000]


def test_sturmian_projection_coding():
    config = BilliardConfig(d=(0, 1, THETA), rho=(0, 0, 0))
    w = billiard_word(config).prefix(10_000)
    assert set(w) == {"1", "2"}
    profile = complexity(w, 30)
    assert all(profile.counts[n] == n + 1 for n in range(1, 31))
    assert sturmian_verdict(profile, balance_order(w, 30)).consistent


def test_wse_candidate_coding():
    w = billiard_word(GOLDEN).prefix(10_000)
    assert wse_verdict(w, 30).consistent
    for i in "012":
        assert balance_order(erase(w, i), 30).order <= 2


def test_complexity_ceiling():
    config = BilliardConfig(
        d=(1, sqrt(2), sqrt(3)),
        rho=(0, parse_number("sqrt(2)/2"), parse_number("sqrt(3)/3")),
    )
    w = billiard_word(config).prefix(10_000)
    profile = complexity(w, 10)
    for n in range(1, 11):
        assert profile.counts[n] <= n * n + n + 1


def test_classify():
    assert classify(BilliardConfig(d=(1, 1, 0), rho=(0, 0, 0))) == "Periodic"
    assert classify(BilliardConfig(d=(2, 3, 6), rho=(0, 0, 0))) == "Periodic"
    assert classify(BilliardConfig(d=(0, 1, THETA), rho=(0, 0, 0))) == "SturmianProjection"
    assert classify(GOLDEN) == "WSECandidate"
    assert classify(BilliardConfig(d=(1, sqrt(2), sqrt(3)), rho=(0, 0, 0))) == "WSECandidate"
    assert classify(BilliardConfig(d=(1, 1, sqrt(2)), rho=(0, 0, 0))) == "Degenerate"
    assert classify(BilliardConfig(d=(0, 0, 1), rho=(0, 0, 0))) == "Degenerate"
    assert classify(BilliardConfig(d=(0, sqrt(2), sqrt(8)), rho=(0, 0, 0))) == "Periodic"


def _ratio_classify(config):
    """The reference for classify: its former loop, which decides each
    ratio d_a/d_b rational by SqrtBasisNumber division."""
    moving = [i for i in range(3) if config.d[i].sign() > 0]
    if len(moving) == 1:
        return "Degenerate"
    ratios_rational = [
        (config.d[a] / config.d[b]).is_rational()
        for pos, a in enumerate(moving)
        for b in moving[pos + 1 :]
    ]
    if len(moving) == 2:
        return "Periodic" if ratios_rational[0] else "SturmianProjection"
    if all(ratios_rational):
        return "Periodic"
    if not any(ratios_rational):
        return "WSECandidate"
    return "Degenerate"


STARTS = ["0", "1/2", "1/3", "sqrt(2)/2", "sqrt(3)/3", "sqrt(5)-2", "2-sqrt(3)", "1-sqrt(6)/3"]


def _quadratic_corpus(seed, count):
    """Seeded configs with one to three moving coordinates, each a + b*sqrt(k)
    with k in {2, 3, 5, 6}, or a rational multiple of one such base, so that
    every classification occurs; rational and quadratic starts."""
    rng = random.Random(seed)

    def number():
        while True:
            a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            x = rational(a) + rational(b) * sqrt(rng.choice([2, 3, 5, 6]))
            if x.sign() > 0:
                return x

    for _ in range(count):
        moving, base = rng.sample(range(3), rng.randint(1, 3)), number()
        d = [rng.choice([number(), base * rational(Fraction(rng.randint(1, 60), rng.randint(1, 60)))])
             if i in moving else 0 for i in range(3)]
        yield BilliardConfig(d=tuple(d), rho=tuple(map(parse_number, rng.choices(STARTS, k=3))))


@pytest.mark.parametrize("seed", range(4))
def test_classify_matches_the_ratio_reference(seed):
    for config in _quadratic_corpus(2401 + seed, 100):
        times = _config_times(config)
        directions, owner = _lines(times)[-1], _owner(billiard_word(config))
        kind = classify(config)
        assert kind == _ratio_classify(config), config
        assert (kind == "Periodic" or len(times) == 1) == (directions == 1)
        if directions == 1:
            # sum(L/P_i) is sum(D), D the primitive integer vector along d.
            first = next(x for x in config.d if x.sign())
            ratios = [(x / first).coords.get(1, Fraction(0)) for x in config.d]
            whole = [int(r * math.lcm(*(r.denominator for r in ratios))) for r in ratios]
            letters = sum(whole) // math.gcd(*whole)
            # One sort of a period of at most 4096 letters, else the batches.
            assert isinstance(owner, _Ring if letters <= 4096 else _Crossings), config
            assert letters > 4096 or owner.period == letters, config
        else:
            assert isinstance(owner, _Crossings), config


# -- one-direction codings: one period ordered, then repeated ----------------


def _single_class_corpus(seed, count):
    """Seeded directions with every moving coordinate on one rational line,
    from rational starts: integer and rational d, and c*(a*sqrt(2),
    b*sqrt(2), e*sqrt(2)); one, two or three moving coordinates.  Each
    entry is (config, D), D the primitive integer vector along d."""
    rng = random.Random(seed)
    for _ in range(count):
        kind, moving = rng.randrange(3), rng.choice([[0, 1, 2], [0, 1, 2], [0, 1], [1, 2], [0, 2], [1]])
        ints = [rng.randint(1, 9) if i in moving else 0 for i in range(3)]
        dens = [rng.randint(1, 6) if kind == 1 else 1 for _ in range(3)]
        scale = [rational(1), rational(1), sqrt(2) * rational(rng.randint(1, 5)) / rng.randint(1, 5)][kind]
        d = tuple(scale * rational(Fraction(a, b)) for a, b in zip(ints, dens))
        q = rng.randint(1, 9)
        rho = tuple(rational(Fraction(rng.randrange(q), q)) for _ in range(3))
        ratios = [Fraction(a, b) for a, b in zip(ints, dens)]
        lcm = math.lcm(*(r.denominator for r in ratios))
        whole = [int(r * lcm) for r in ratios]
        yield BilliardConfig(d=d, rho=rho), [x // math.gcd(*whole) for x in whole]


SINGLE_CLASS = list(_single_class_corpus(2301, 24)) + [
    (_config(["sqrt(2)", "sqrt(2)", "2*sqrt(2)"], ["0", "0", "0"]), [1, 1, 2]),
    (_config(["3*sqrt(2)/2", "3*sqrt(2)/2", "3*sqrt(2)"], ["1/2", "0", "1/3"]), [1, 1, 2]),
    # One direction from starts off its line: two or three line classes.
    (_config(["3", "5", "7"], ["0", "sqrt(2)/2", "0"]), [3, 5, 7]),
    (_config(["1", "2", "3"], ["sqrt(3)/3", "sqrt(2)/2", "0"]), [1, 2, 3]),
    (_config(["sqrt(2)", "sqrt(2)", "2*sqrt(2)"], ["sqrt(3)/3", "0", "0"]), [1, 1, 2]),
    (_config(["1", "1", "0"], ["sqrt(2)/2", "0", "0"]), [1, 1, 0]),
]


def _one_direction_corpus(seed, count):
    """Seeded one-direction codings that are not all rational: d = b*D, D
    a primitive vector of small integers, some 0, and b rational or
    a + c*sqrt(k) with k in {2, 3, 5}, from starts drawn from STARTS or
    from its rational ones, so that one, two and three line classes occur:
    (config, D)."""
    rng = random.Random(seed)
    while count:
        whole = [rng.choice([0, 0, *range(1, 10)]) for _ in range(3)]
        a, c = (rational(Fraction(rng.randint(lo, 3), rng.randint(1, 3))) for lo in (-3, 1))
        base = rng.choice([c, a + c * sqrt(rng.choice([2, 3, 5]))])
        rho = tuple(map(parse_number, rng.choices(rng.choice([STARTS[:3], STARTS]), k=3)))
        if any(whole) and base.sign() > 0 and not all(x.is_rational() for x in (base, *rho)):
            whole = [x // math.gcd(*whole) for x in whole]
            count -= 1
            yield BilliardConfig(d=tuple(base * rational(x) for x in whole), rho=rho), whole


ONE_DIRECTION = list(_one_direction_corpus(3302, 24))


def test_one_direction_corpus_covers_its_kinds():
    # Rational directions from irrational starts and quadratic directions,
    # each with one, two and three line classes.
    kinds = set()
    for config, _ in ONE_DIRECTION:
        classes = len(_lines(_config_times(config))[-2])
        kinds.add((all(x.is_rational() for x in config.d), classes))
    assert kinds == {(rational_d, k) for rational_d in (True, False) for k in (1, 2, 3)}


CHUNKS = (1, 63, 300, 5000)


def _chunked(prefix):
    """Read through prefix in requests of each chunk size in turn, so that
    reads end anywhere in a period."""
    word = ""
    for size in CHUNKS:
        word = prefix(len(word) + size)
    return word


def _owner(stream):
    """The _Ring (one integer sort) or _Crossings whose letters a billiard
    stream's pump reads."""
    return stream._pump.__self__


SINGLE_CLASS_IDS = [*range(len(SINGLE_CLASS)),
                    *(f"one-direction-{n}" for n in range(len(ONE_DIRECTION)))]


@pytest.mark.parametrize("config, whole", SINGLE_CLASS + ONE_DIRECTION, ids=SINGLE_CLASS_IDS)
def test_single_class_words_match_the_reference(config, whole, monkeypatch):
    length = sum(CHUNKS)
    expected = list(itertools.islice(_reference_events(config), length))
    word = "".join("".join(map(str, e.omega)) for e in expected)[:length]
    stream = billiard_word(config)
    # Every one-direction coding of a period of at most 4096 letters is one sort.
    assert isinstance(_owner(stream), _Ring)
    assert _owner(stream).period == sum(whole) <= length // 3
    with monkeypatch.context() as patch:
        sizes = sort_sizes(patch)
        assert _chunked(stream.prefix) == word
    assert sizes == []  # every letter read came from the period sorted at the start
    # The batches alone give the same letters.
    ordinary = _Crossings(_config_times(config))
    got = ""
    while len(got) < length:
        got += ordinary.letters(length - len(got))
    assert got[:length] == word
    events = _events(config, len(expected))
    assert events == expected


@pytest.mark.parametrize("config, whole", SINGLE_CLASS + ONE_DIRECTION, ids=SINGLE_CLASS_IDS)
def test_single_class_period_and_classification(config, whole):
    assert classify(config) in ("Periodic", "Degenerate")
    assert _owner(billiard_word(config)).period == sum(whole)
    assert math.gcd(*whole) == 1 and sum(whole) > 0


def _batch_word(config, length):
    """The first length letters of the coding of config, from the batches alone."""
    return WordStream(batches_alone(_config_times(config))).prefix(length)


@pytest.mark.parametrize("config, period", [
    (_config(["3", "5", "7"], ["0", "1/2", "1/3"]), 15),
    (_config(["1", "2048", "2047"], ["0", "0", "0"]), 4096),
    (_config(["sqrt(2)", "sqrt(2)", "2*sqrt(2)"], ["1/2", "0", "1/3"]), 4),
])
def test_periodic_streams_order_one_period(config, period, monkeypatch):
    # One sort orders the period, rational rows or not, when the stream is
    # built, after _lines sorts the one square-free key of its rows.
    ordinary = _batch_word(config, 3 * period)
    sizes = sort_sizes(monkeypatch)
    stream = billiard_word(config)
    assert sizes == [1, period]
    assert _owner(stream).period == period
    word = stream.prefix(10**6)
    assert sizes == [1, period]
    assert word == word[:period] * (10**6 // period) + word[: 10**6 % period]
    assert word[: 3 * period] == ordinary
    # The ring holds the period and at most one batch cap of letters past it.
    assert len(_owner(stream).ring) <= 2 * period + 4096
    stream.prefix(2 * 10**6)
    assert sizes == [1, period]


@pytest.mark.parametrize("d", [
    ["1", "sqrt(2)", "2*sqrt(2)"],
    ["1", "sqrt(2)", "sqrt(3)"],
    # One line, but sum(d_i) letters a period: over 4096, or 2*10**9 + 17.
    ["1", "2048", "2048"],
    ["1000000007", "1000000009", "1"],
])
def test_other_streams_stay_on_the_batches(d, monkeypatch):
    config = _config(d, ["0", "0", "0"])
    stream = billiard_word(config)
    # _Crossings keeps only the batches: no period, and no ring.
    assert isinstance(_owner(stream), _Crossings) and not {"period", "ring"} & set(vars(_owner(stream)))
    sizes = sort_sizes(monkeypatch)
    stream.prefix(10**5)
    assert len(sizes) >= 10**5 // 4096
    assert stream.prefix(3000) == _event_word(config, 3000)


# -- one-direction codings: one integer sort of one period -------------------

# (config, period): a coordinate at rest from a start on a face, ties at
# t = 0 and at later times, several denominators in rho and d, period 1,
# and the batch cap itself.
INTEGER_CODINGS = [
    (_config(["2", "3", "0"], ["0", "0", "1/2"]), 5),
    (_config(["3", "5", "7"], ["0", "0", "0"]), 15),
    (_config(["2", "4", "2"], ["0", "1/2", "0"]), 4),
    (_config(["2", "2", "1"], ["1/2", "1/2", "0"]), 5),
    (_config(["3", "5", "7"], ["1/2", "1/3", "2/5"]), 15),
    (_config(["1/2", "5/3", "7/4"], ["1/6", "0", "3/4"]), 47),
    (_config(["0", "5/3", "0"], ["0", "1/7", "0"]), 1),
    (_config(["1", "2047", "2048"], ["0", "0", "0"]), 4096),
]


def _rational_corpus(seed, count):
    """Seeded rational directions, some coordinates at rest, from rational
    starts with several denominators, some on a face: (config, period)."""
    rng = random.Random(seed)
    for _ in range(count):
        moving = rng.choice([[0, 1, 2], [0, 1, 2], [0, 1], [1, 2], [0, 2], [2]])
        ratios = [Fraction(rng.randint(1, 12), rng.randint(1, 5)) if i in moving else Fraction(0)
                  for i in range(3)]
        rho = [Fraction(rng.randrange(q), q) for q in (rng.randint(1, 7) for _ in range(3))]
        whole = [int(r * math.lcm(*(r.denominator for r in ratios))) for r in ratios]
        config = BilliardConfig(d=tuple(map(rational, ratios)), rho=tuple(map(rational, rho)))
        yield config, sum(whole) // math.gcd(*whole)


# The rational codings, then the one-direction ones off the rational rows.
ONE_SORT = INTEGER_CODINGS + list(_rational_corpus(3201, 24)) + [
    (config, sum(whole)) for config, whole in SINGLE_CLASS[24:] + ONE_DIRECTION
]


@pytest.mark.parametrize("config, period", ONE_SORT, ids=range(len(ONE_SORT)))
def test_integer_path_matches_the_batches_and_exact_events(config, period):
    # Two periods and more, read in chunks that end anywhere in a period,
    # against the batches alone and one exactly ordered event at a time.
    length = max(2 * period + 301, sum(CHUNKS))
    stream = billiard_word(config)
    assert isinstance(_owner(stream), _Ring) and _owner(stream).period == period
    word = ""
    for size in itertools.cycle(CHUNKS):
        if len(word) >= length:
            break
        word = stream.prefix(min(length, len(word) + size))
    assert word == _batch_word(config, length) == _event_word(config, length)


@pytest.mark.parametrize("d, rho", [
    (["1", "2048", "2048"], ["0", "0", "0"]),  # 4097 letters a period
])
def test_other_rational_directions_stay_on_crossings(d, rho):
    config = _config(d, rho)
    stream = billiard_word(config)
    assert isinstance(_owner(stream), _Crossings)
    assert stream.prefix(9000) == _event_word(config, 9000)


@pytest.mark.parametrize("config", [config for config, _ in ONE_SORT[:32] + SINGLE_CLASS[24:26]])
def test_one_key_lines_match_the_general_classes(config):
    # Rows over one key take one class at once.  Times scaled by 1 + sqrt(2)
    # keep their order and have two keys, so the general class loop sees
    # them: it must give the same first crossings, lines and directions.
    times = _config_times(config)
    scale = rational(1) + sqrt(2)
    scaled = {i: (x * scale, y * scale) for i, (x, y) in times.items()}
    one, general = _lines(times), _lines(scaled)
    assert len(one[1]) == 1 and len(general[1]) == 2
    assert one[3:5] == general[3:5] and one[6] == general[6] == 1
    assert len(one[5]) == len(general[5]) == 1
