"""Fuzz test of the `wse` command line: argv drawn from the COMMANDS table,
with long and deeply nested number expressions among the values.  Every run
must return exit code 0, 1 or 2 without raising."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sturmian_erasures.cli import COMMANDS, run  # noqa: E402

WORDS = st.text("012", max_size=40) | st.text("012ab ", max_size=12)
INTS = st.integers(-3, 300).map(str) | st.sampled_from(["", "x", "1e3", "10000000000"])
LEAVES = (
    st.integers(0, 30).map(str)
    | st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 9))
    | st.integers(-2, 30).map("sqrt({})".format)
)
EXPRESSIONS = st.recursive(
    LEAVES,
    lambda inner: st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner)
    | inner.map("-{}".format),
    max_leaves=6,
)
# Long chains and deep nesting on both sides of the parser's 100-character cap.
LONG = st.builds(
    lambda shape, k: shape.format(a="1/1" + "+1" * k, b="-" * k, c="(" * k, d=")" * k),
    st.sampled_from(["{a}", "{b}1", "{c}1{d}", "{c}sqrt(2){d}/3", "sqrt({c}2{d})"]),
    st.sampled_from([1, 33, 49, 50, 51, 120, 999, 3000, 20_000]),
)
NUMBERS = EXPRESSIONS | LONG | st.text(max_size=10)
SPECS = (
    st.lists(st.text("012", max_size=5), min_size=2, max_size=3).map(
        lambda images: ",".join(f"{a}={w}" for a, w in zip("012", images)))
    | st.text("012=, x", max_size=12)
)
# Values for each flag of the COMMANDS table; --n stays below 15, since
# psi_32, the largest allowed, takes seconds to build.
VALUES = {
    "word": WORDS,
    "--file": st.just(str(Path(__file__).with_name("no-such-word.txt"))),
    "--length": INTS,
    "--max-n": INTS,
    "--alpha": NUMBERS,
    "--rho": NUMBERS | st.lists(NUMBERS, min_size=3, max_size=3).map(",".join),
    "--d": st.lists(NUMBERS, min_size=2, max_size=4).map(",".join),
    "--spec": SPECS,
    "--with": SPECS,
    "--seed": st.sampled_from(["0", "1", "2", "01", "x"]),
    "--letter": st.sampled_from(["0", "1", "2", "3", ""]),
    "--n": st.integers(-2, 14).map(str) | st.sampled_from(["33", "x"]),
    "--format": st.sampled_from(["text", "json", "csv", "xml"]),
}


@settings(max_examples=300, derandomize=True, deadline=2000)
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(data):
    group = data.draw(st.sampled_from(sorted(COMMANDS)))
    commands = COMMANDS[group][1]
    name = data.draw(st.sampled_from(sorted(commands)))
    argv = [group, name]
    for flag, options in [*commands[name][2], ("--format", {})]:
        # A required flag is left out one time in ten: argparse must refuse.
        keep = st.integers(0, 9).map(bool) if options.get("required") else st.booleans()
        if not data.draw(keep):
            continue
        value = data.draw(VALUES[flag])
        argv.append(value if flag == "word" else f"{flag}={value}")
    stdin = data.draw(WORDS)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
