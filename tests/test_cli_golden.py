"""Golden transcript of the `wse` command line.

`golden_cli.txt` holds one JSON record per line: the argv, the stdin, and
the exit code, stdout and stderr that `cli.run` gave for it.  It covers
every README command in the three formats, one command for each remaining
output branch, the refusals, and the help pages.  Each record is replayed
in-process and must match byte for byte.

To record the file again (only when an output change is intended):

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sturmian_erasures import cli

GOLDEN = Path(__file__).with_name("golden_cli.txt")
# Read by the README's `analyze wse --file word.txt`.
WORD_FILE = "0102010010201020100102"
FORMATS = ("text", "json", "csv")

README = [
    ["word", "fib", "--length", "13"],
    ["word", "mechanical", "--alpha", "(3-sqrt(5))/2"],
    ["word", "fixed-point", "--spec", "0=01,1=0"],
    ["word", "erase", "--letter", "2", "0210020210"],
    ["analyze", "complexity", "00110", "--max-n", "2"],
    ["analyze", "sturmian", "00110"],
    ["analyze", "wse", "--file", "word.txt"],
    ["morphism", "apply", "--spec", "0=02,1=10,2=", "010"],
    ["morphism", "compose", "--spec", "0=0,1=1,2=012", "--with", "0=02,1=10,2="],
    ["morphism", "matrix", "--spec", "0=01,1=0"],
    ["morphism", "det", "--spec", "0=01,1=0"],
    ["morphism", "classify", "--spec", "0=0,1=1,2="],
    ["st", "decompose", "--spec", "0=010,1=0"],
    ["mse", "check", "--spec", "0=02,1=10,2="],
    ["mse", "prime", "--spec", "0=0102,1=01,2="],
    ["mse", "psi", "--n", "2"],
    ["billiard", "code", "--d", "1,1,0", "--rho", "0,1/2,0", "--length", "8"],
    ["billiard", "classify", "--d", "1,sqrt(2),sqrt(3)"],
]

# Output branches the README commands do not reach.
BRANCHES = [
    ["analyze", "balance", "0011", "--max-n", "2"],
    ["analyze", "sturmian", "0100101001001"],
    ["analyze", "wse", "0102010012"],
    ["st", "decompose", "--spec", "0=0,1=1"],
    ["mse", "check", "--spec", "0=1,1=2,2=0"],
    ["mse", "check", "--spec", "0=0012,1=10,2="],
    ["mse", "prime", "--spec", "0=01,1=20,2="],
    ["mse", "psi", "--n", "4"],
    ["billiard", "code", "--d", "1,1,0", "--rho", "0,0,0", "--length", "3"],
    ["word", "mechanical", "--alpha", "1/2", "--rho", "1/3", "--length", "20"],
    ["word", "fixed-point", "--spec", "0=01,1=0", "--seed", "1", "--length", "20"],
]

REFUSALS = [
    ["st", "decompose", "--spec", "0=01,1=01"],
    ["mse", "check", "--spec", "0=01,1=0,2=1"],
    ["mse", "prime", "--spec", "0=0012,1=10,2="],
    ["mse", "prime", "--spec", "0=1,1=2,2=0"],
    ["morphism", "det", "--spec", "0=01"],
    ["analyze", "complexity", "0a1"],
    ["word", "fib", "--length", "99999999999"],
    ["word", "fixed-point", "--spec", "0=0,1=1", "--seed", "01", "--length", "30"],
]

HELP = [["--help"]] + [
    [group, "--help"] for group in ("word", "analyze", "morphism", "st", "mse", "billiard")
]


def golden_commands():
    """(argv, stdin) of every recorded command, in file order."""
    commands = [
        (argv + ["--format", fmt], "") for argv in README + BRANCHES + REFUSALS for fmt in FORMATS
    ]
    commands.append((["word", "erase", "--letter", "2"], "02 1002\n0210\n"))
    commands.append((["frobnicate"], ""))
    commands.extend((argv, "") for argv in HELP)
    return commands


def replay(argv, stdin):
    """Run one command through cli.run: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved
    # Python 3.10 titles the option list "optional arguments:".
    return code, out.getvalue().replace("optional arguments:", "options:"), err.getvalue()


def _load():
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        return [json.loads(line) for line in fh]


@pytest.fixture
def golden_env(tmp_path, monkeypatch):
    # argparse wraps help and usage text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "word.txt").write_text(WORD_FILE + "\n")


def test_golden_covers_the_command_list():
    assert [(r["argv"], r["stdin"]) for r in _load()] == golden_commands()


@pytest.mark.parametrize(
    "record", _load(), ids=lambda r: " ".join(r["argv"]) + (" <stdin" if r["stdin"] else "")
)
def test_golden_transcript(golden_env, record):
    code, out, err = replay(record["argv"], record["stdin"])
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


def record():
    os.environ["COLUMNS"] = "80"
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("word.txt").write_text(WORD_FILE + "\n")
            for argv, stdin in golden_commands():
                code, out, err = replay(argv, stdin)
                entry = {"argv": argv, "stdin": stdin, "exit": code, "stdout": out, "stderr": err}
                lines.append(json.dumps(entry, sort_keys=True) + "\n")
        finally:
            os.chdir(cwd)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    print(f"wrote {len(lines)} records to {GOLDEN}")


if __name__ == "__main__":
    record()
