import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sturmian_erasures import apply, parse_morphism
from sturmian_erasures.cli import COMMANDS, build_parser, run

from conftest import fib_prefix

FIB13 = "0100101001001"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_fib(capsys):
    code, out, _ = _run(capsys, "word", "fib", "--length", "13")
    assert code == 0
    assert out == FIB13 + "\n"


def test_word_fib_json(capsys):
    code, out, _ = _run(capsys, "word", "fib", "--length", "13", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"word": FIB13}


def test_word_mechanical(capsys):
    code, out, _ = _run(
        capsys, "word", "mechanical", "--alpha", "1/2", "--length", "8"
    )
    assert code == 0
    assert out.strip() == "01010101"
    code, out, _ = _run(
        capsys,
        "word",
        "mechanical",
        "--alpha",
        "(3-sqrt(5))/2",
        "--rho",
        "(3-sqrt(5))/2",
        "--length",
        "50",
    )
    assert code == 0
    assert out.strip() == fib_prefix(50)


def test_word_fixed_point(capsys):
    code, out, _ = _run(
        capsys, "word", "fixed-point", "--spec", "0=01,1=0", "--length", "13"
    )
    assert code == 0
    assert out.strip() == FIB13


def test_word_erase(capsys):
    code, out, _ = _run(capsys, "word", "erase", "--letter", "2", "0210020210")
    assert code == 0
    assert out.strip() == "0100010"


def test_word_erase_rejects_letters_outside_alphabet(capsys):
    for argv in (("word", "erase", "--letter", "1", "0a1"), ("analyze", "complexity", "0a1")):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: letter 'a' outside alphabet 012\n")


def test_word_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("02 1002\n0210\n"))
    code, out, _ = _run(capsys, "word", "erase", "--letter", "2")
    assert code == 0
    assert out.strip() == "0100010"


def test_word_from_file(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("0210020210\n")
    code, out, _ = _run(capsys, "word", "erase", "--letter", "2", "--file", str(path))
    assert code == 0
    assert out.strip() == "0100010"


def test_analyze_complexity(capsys):
    code, out, _ = _run(
        capsys, "analyze", "complexity", "00110", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"1": 2, "2": 4}
    code, out, _ = _run(
        capsys, "analyze", "complexity", "00110", "--max-n", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,count", "1,2", "2,4"]
    code, out, _ = _run(capsys, "analyze", "complexity", "00110", "--max-n", "2")
    assert out.splitlines() == ["P(1) = 2", "P(2) = 4"]


def test_analyze_balance(capsys):
    code, out, _ = _run(capsys, "analyze", "balance", "0011", "--max-n", "2")
    assert code == 0
    assert out.splitlines() == ["imbalance(1) = 1", "imbalance(2) = 2", "order = 2"]


def test_analyze_sturmian(capsys):
    code, out, _ = _run(capsys, "analyze", "sturmian", "00110", "--max-n", "2")
    assert code == 1
    assert out.strip() == "Refuted: P(2)=4 > 3"

    code, out, _ = _run(capsys, "analyze", "sturmian", fib_prefix(500))
    assert code == 0
    assert out.strip() == "Consistent up to n = 30"


def test_analyze_wse(capsys):
    fh = parse_morphism("0=0012,1=10,2=")
    word = apply(fh, fib_prefix(300))
    code, out, _ = _run(capsys, "analyze", "wse", word)
    assert code == 1
    assert "Refuted: erasure 2: P(2)=4 > 3" in out

    g = parse_morphism("0=02,1=10,2=")
    code, out, _ = _run(capsys, "analyze", "wse", apply(g, fib_prefix(300)))
    assert code == 0
    assert out.splitlines()[-1] == "Consistent"


def test_analyze_wse_json_round_trip(capsys):
    g = parse_morphism("0=02,1=10,2=")
    code, out, _ = _run(
        capsys, "analyze", "wse", apply(g, fib_prefix(300)), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert set(payload["erasures"]) == {"0", "1", "2"}


def test_morphism_apply(capsys):
    code, out, _ = _run(
        capsys, "morphism", "apply", "--spec", "0=02,1=10,2=", "010"
    )
    assert code == 0
    assert out.strip() == "021002"


def test_morphism_compose(capsys):
    code, out, _ = _run(
        capsys,
        "morphism",
        "compose",
        "--spec",
        "0=0,1=1,2=012",
        "--with",
        "0=02,1=10,2=",
    )
    assert code == 0
    assert out.strip() == "0=0012,1=10,2="


LONG_IMAGE = "0=" + "0" * 10_001 + ",1=1"


def test_morphism_apply_above_ceiling_exits_two(capsys):
    # 1,000 letters with images of 10,001 letters: refused before the image is built.
    code, out, err = _run(capsys, "morphism", "apply", "--spec", LONG_IMAGE, "0" * 1000)
    assert code == 2 and out == ""
    assert err == "error: image length 10001000 exceeds the ceiling 10000000\n"


def test_morphism_compose_above_ceiling_exits_two(capsys):
    code, out, err = _run(
        capsys, "morphism", "compose", "--spec", LONG_IMAGE, "--with", "0=" + "0" * 1000 + ",1="
    )
    assert code == 2 and out == ""
    assert err == "error: image length 10001000 exceeds the ceiling 10000000\n"


def test_morphism_matrix(capsys):
    code, out, _ = _run(capsys, "morphism", "matrix", "--spec", "0=01,1=0")
    assert code == 0
    assert out.splitlines() == ["1 1", "1 0"]
    code, out, _ = _run(
        capsys, "morphism", "matrix", "--spec", "0=01,1=0", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["rows"] == [[1, 1], [1, 0]]
    assert payload["row_letters"] == "01"


def test_morphism_det(capsys):
    code, out, _ = _run(capsys, "morphism", "det", "--spec", "0=01,1=0")
    assert code == 0
    assert out.strip() == "-1"


def test_morphism_classify(capsys):
    code, out, _ = _run(capsys, "morphism", "classify", "--spec", "0=0,1=1,2=")
    assert code == 0
    assert out.splitlines() == [
        "nilpotent: 2",
        "permuting: 01",
        "core: 01",
        "expansive: -",
    ]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_image_letters_outside_the_domain_exit_cleanly(capsys, fmt):
    # 0=2,1=1 parses, but its image letter 2 has no image of its own.
    for group, (_, commands) in COMMANDS.items():
        for name, (_, _, arguments) in commands.items():
            flags = [flag for flag, _ in arguments]
            if "--spec" not in flags and "--with" not in flags:
                continue
            argv = [group, name, f"--format={fmt}"]
            argv += [f"{flag}=0=2,1=1" for flag in flags if flag in ("--spec", "--with")]
            argv += ["01"] if "word" in flags else []
            code, _, err = _run(capsys, *argv)
            assert code in (0, 1, 2), argv
            if argv[:2] == ["morphism", "classify"]:
                assert code == 2
                assert err == "error: letter '2' outside domain '01'\n"


def test_st_decompose(capsys):
    code, out, _ = _run(capsys, "st", "decompose", "--spec", "0=010,1=0")
    assert code == 0
    assert out.splitlines() == ["factors: phi,E,phit", "degree: 2"]

    code, out, _ = _run(capsys, "st", "decompose", "--spec", "0=0,1=1")
    assert code == 0
    assert out.splitlines() == ["factors: id", "degree: 0"]

    code, out, _ = _run(capsys, "st", "decompose", "--spec", "0=0,1=0")
    assert code == 1
    assert out.strip() == "Rejected: determinant (det=0, members have det +-1)"

    code, out, _ = _run(
        capsys, "st", "decompose", "--spec", "0=010,1=0", "--format", "json"
    )
    assert json.loads(out) == ["phi", "E", "phit"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_st_decompose_deep_chain(fmt):
    """A member with 4000 factors decomposes in a fresh process, with no
    traceback and no recursion limit in the way."""
    spec = "0=0,1=" + "0" * 2000 + "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "from sturmian_erasures.cli import main; main()",
         "st", "decompose", "--spec", spec, "--format", fmt],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    factors = ["phi", "E"] * 2000
    if fmt == "json":
        assert json.loads(proc.stdout) == factors
    else:
        assert proc.stdout.splitlines() == ["factors: " + ",".join(factors), "degree: 2000"]


def test_fast_growing_fixed_point_stays_within_memory():
    """Under a 600 MB address-space limit the 10^9-letter chunk that follows
    a million ones is never built: only the requested letters are."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "from sturmian_erasures.cli import main; main()",
         "word", "fixed-point", "--spec", "0=01,1=" + "1" * 1000, "--length", "2000000"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "0" + "1" * 1_999_999 + "\n"


def test_analyze_counts_a_long_input_without_holding_it():
    """Under a 100 MB address-space limit a 10^7-letter stdin is refused with
    its letter count: only the first --length letters are kept."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "from sturmian_erasures.cli import main; main()",
         "analyze", "complexity"],
        input="0\n" * 10**7, capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: input has 10000000 letters, more than --length 10000\n"


def test_mse_check(capsys):
    code, out, _ = _run(capsys, "mse", "check", "--spec", "0=02,1=10,2=")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ErasingMember (erases 2)"
    assert len(lines) == 4

    code, out, _ = _run(capsys, "mse", "check", "--spec", "0=1,1=2,2=0")
    assert code == 0
    assert out.strip() == "Permutation"

    code, out, _ = _run(capsys, "mse", "check", "--spec", "0=0012,1=10,2=")
    assert code == 1
    assert out.startswith("Rejected: projection-2-not-sturmian")


def test_mse_check_json(capsys):
    code, out, _ = _run(
        capsys, "mse", "check", "--spec", "0=02,1=10,2=", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "erasing-member"
    assert payload["erased"] == "2"
    assert set(payload["certificates"]) == {"0", "1", "2"}


def test_mse_prime(capsys):
    code, out, _ = _run(capsys, "mse", "prime", "--spec", "0=0102,1=01,2=")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "CompositeCertified"
    assert lines[1] == "g: 0=01,1=02,2="
    assert lines[2] == "h: 0=01,1=02,2="

    code, out, _ = _run(capsys, "mse", "prime", "--spec", "0=01,1=20,2=")
    assert code == 0
    assert out.startswith("PrimeCertified")

    code, out, _ = _run(capsys, "mse", "prime", "--spec", "0=0012,1=10,2=")
    assert code == 1
    assert out.startswith("Rejected: not an erasing member")


def test_mse_prime_wrong_alphabet_is_an_input_error(capsys):
    # Only a non-member is a rejection; a morphism not on 012 is bad input.
    for command in ("check", "prime"):
        code, out, err = _run(capsys, "mse", command, "--spec", "0=0,1=1")
        assert (code, out) == (2, "")
        assert err == "error: mse_membership expects a morphism on 012\n"


def test_spec_with_a_bad_image_letter_exits_two(capsys):
    # parse_morphism leaves the image letters to Morphism, whose message this is.
    for spec, letter, image in (("0=03,1=1", "0", "03"), ("0=0,1=1,2=x2", "2", "x2")):
        code, out, err = _run(capsys, "morphism", "det", "--spec", spec)
        assert (code, out) == (2, "")
        assert err == f"error: image of {letter!r} contains letters outside 012: {image!r}\n"


def test_mse_psi(capsys):
    code, out, _ = _run(capsys, "mse", "psi", "--n", "2")
    assert code == 0
    assert out.strip() == "0=2010,1=01,2="
    code, out, _ = _run(capsys, "mse", "psi", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["psi"] == "0=012001,1=2010,2="
    assert payload["n"] == 3
    assert set(payload) == {"n", "psi", "f", "g", "h"}


def test_billiard_code(capsys):
    code, out, _ = _run(
        capsys, "billiard", "code", "--d", "1,1,0", "--rho", "0,1/2,0", "--length", "8"
    )
    assert code == 0
    assert out.strip() == "01010101"


def test_billiard_code_json_and_csv(capsys):
    code, out, _ = _run(
        capsys,
        "billiard",
        "code",
        "--d",
        "1,1,0",
        "--rho",
        "0,0,0",
        "--length",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    log = json.loads(out)
    assert log == [
        {"t": "0", "omega": [0, 1]},
        {"t": "1", "omega": [0, 1]},
        {"t": "2", "omega": [0, 1]},
    ]
    code, out, _ = _run(
        capsys,
        "billiard",
        "code",
        "--d",
        "1,1,0",
        "--rho",
        "0,0,0",
        "--length",
        "3",
        "--format",
        "csv",
    )
    assert out.splitlines() == ["t,omega", "0,01", "1,01", "2,01"]


def test_billiard_event_logs_build_no_coding_stream(capsys, monkeypatch):
    # The json and csv views print the event log alone, so the coding
    # stream, a second set of crossings, is never built for them.
    import sturmian_erasures as lib

    def unbuilt(config):
        raise AssertionError("billiard_word built for an event log")

    monkeypatch.setattr(lib, "billiard_word", unbuilt)
    args = ["billiard", "code", "--d", "1,1,0", "--rho", "0,0,0", "--length", "3", "--format"]
    code, out, _ = _run(capsys, *args, "json")
    assert code == 0 and [e["omega"] for e in json.loads(out)] == [[0, 1]] * 3
    code, out, _ = _run(capsys, *args, "csv")
    assert code == 0 and out.splitlines() == ["t,omega", "0,01", "1,01", "2,01"]


def test_billiard_event_logs_spell_the_word(capsys):
    # Every crossing of coordinate 1 ties with every second one of
    # coordinate 2, so the logs hold many fused events.
    args = ["billiard", "code", "--d", "1,sqrt(2),2*sqrt(2)", "--rho", "0,0,0",
            "--length", "5000"]
    _, word, _ = _run(capsys, *args)
    word = word.strip()
    _, out, _ = _run(capsys, *args, "--format", "json")
    from_json = "".join("".join(map(str, e["omega"])) for e in json.loads(out))
    _, out, _ = _run(capsys, *args, "--format", "csv")
    from_csv = "".join(line.split(",")[1] for line in out.splitlines()[1:])
    assert len(word) == 5000 and from_json == from_csv
    assert from_json[:5000] == word and "12" in from_json


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_closed_stdout_ends_quietly(fmt):
    """A reader that stops after the first line (at most 4 KB of it) of a
    10^5-letter coding leaves exit code 0 and an empty stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "sturmian_erasures.cli", "billiard", "code",
         "--d", "1,sqrt(2),2*sqrt(2)", "--rho", "0,0,0", "--length", "100000",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={**os.environ, "PYTHONPATH": src},
    )
    first = proc.stdout.readline(4096)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first[:1] in (b"0", b"t", b"[")
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_stdout_closed_at_start_ends_quietly(fmt):
    """Started with fd 1 closed, as by `wse ... >&-`, a command exits 0 and
    writes nothing to stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sturmian_erasures.cli", "billiard", "code",
         "--d", "1,sqrt(2),sqrt(3)", "--rho", "0,0,0", "--length", "50", "--format", fmt],
        stderr=subprocess.PIPE, timeout=60, preexec_fn=lambda: os.close(1),
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_closed_stdout_keeps_the_verdict_exit_code():
    """With stdout closed before the first write, a refuting verdict still
    exits 1, and stderr stays empty."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sturmian_erasures.cli", "analyze", "sturmian", "00110"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_billiard_classify(capsys):
    code, out, _ = _run(capsys, "billiard", "classify", "--d", "1,sqrt(2),sqrt(3)")
    assert code == 0
    assert out.strip() == "WSECandidate"
    code, out, _ = _run(capsys, "billiard", "classify", "--d", "1,1,0")
    assert out.strip() == "Periodic"
    code, out, _ = _run(
        capsys,
        "billiard",
        "classify",
        "--d",
        "(1+sqrt(5))/2,1,0",
        "--format",
        "json",
    )
    assert json.loads(out) == {"class": "SturmianProjection"}


def test_usage_errors_exit_two(capsys):
    code, _, err = _run(capsys, "morphism", "det", "--spec", "0=01")
    assert code == 2
    assert err.startswith("error:")

    code, _, err = _run(capsys, "billiard", "classify", "--d", "1,2")
    assert code == 2

    code, _, err = _run(capsys, "billiard", "classify", "--d", "1,x,3")
    assert code == 2

    code, _, err = _run(capsys, "analyze", "complexity", "")
    assert code == 2

    code, _, err = _run(capsys, "word", "mechanical", "--alpha", "2")
    assert code == 2

    code, _, err = _run(capsys, "word", "fib", "--length", "notanint")
    assert code == 2

    code, _, err = _run(capsys, "no-such-command")
    assert code == 2


def test_oversized_sqrt_argument_exits_two(capsys):
    code, out, err = _run(
        capsys,
        "billiard",
        "code",
        "--d",
        "1,1,sqrt(1000000000039*1000000000061)",
        "--rho",
        "0,0,0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds the limit" in err


@pytest.mark.parametrize(
    "alpha",
    ["1/1" + "+1" * 999, "1/1" + "+1" * 2999, "-" * 20_000 + "1"],
    ids=["1000-terms", "3000-terms", "20000-minus-signs"],
)
def test_long_number_expression_exits_two(capsys, alpha):
    # Refused before parsing: these once ended in RecursionError, an error
    # inside ast, and MemoryError.
    code, out, err = _run(capsys, "word", "mechanical", f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert err == f"error: bad number expression: {len(alpha)} characters, more than 100\n"

@pytest.mark.parametrize("alpha, token", [
    ("0x10/32", "x"), ("1_0/32", "_"), ("1/3#c", "#"), ("sqrt(2,)-1", ","), ("sqrt(2)**2", "*"),
])
def test_number_outside_the_grammar_exits_two(capsys, alpha, token):
    # A hexadecimal literal, a digit separator, a comment and a trailing
    # comma in sqrt were once accepted, and ** answered with a syntax tree.
    code, out, err = _run(capsys, "word", "mechanical", "--alpha", alpha, "--length", "8")
    assert code == 2 and out == ""
    assert err == f"error: bad number expression {alpha!r}: unexpected {token!r}\n"


def test_wse_max_n_error_names_the_input_length(capsys):
    code, out, err = _run(capsys, "analyze", "wse", "012012", "--max-n", "0")
    assert code == 2 and out == ""
    assert err == "error: max_n 0 out of range for prefix of length 6\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["word", "fib"],
        ["word", "mechanical", "--alpha", "1/2"],
        ["word", "fixed-point", "--spec", "0=01,1=0"],
        ["billiard", "code", "--d", "1,1,0", "--rho", "0,0,0", "--format", "json"],
    ],
)
def test_length_above_ceiling_exits_two(capsys, argv):
    # Rejected before any letter is generated, so this returns at once.
    code, out, err = _run(capsys, *argv, "--length", "10000000000")
    assert code == 2 and out == ""
    assert err == "error: --length 10000000000 exceeds the ceiling 10000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["word", "fib"],
        *(["billiard", "code", "--d", "1,1,0", "--rho", "0,0,0", "--format", fmt]
          for fmt in ("text", "json", "csv")),
        *(["analyze", analyzer, "0100101"]
          for analyzer in ("complexity", "balance", "sturmian", "wse")),
    ],
    ids=["word-fib", "billiard-text", "billiard-json", "billiard-csv",
         "analyze-complexity", "analyze-balance", "analyze-sturmian", "analyze-wse"],
)
def test_negative_length_exits_two(capsys, argv):
    code, out, err = _run(capsys, *argv, "--length", "-1")
    assert (code, out, err) == (2, "", "error: length must be >= 0\n")


def test_negative_psi_index_keeps_its_message(capsys):
    code, out, err = _run(capsys, "mse", "psi", "--n", "-2")
    assert (code, out, err) == (2, "", "error: psi is defined for n >= 1\n")


def test_non_ascii_file_names_its_file_offset(capsys, tmp_path):
    # 70,000 letters put the bad byte in the second 64 KiB read block.
    path = tmp_path / "word.txt"
    path.write_bytes(b"0" * 70_000 + "é".encode())
    code, out, err = _run(capsys, "analyze", "complexity", "--file", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: 'ascii' codec can't decode byte 0xc3 in position 70000: "
        "ordinal not in range(128)\n"
    )


def test_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sturmian_erasures.cli", "analyze", "sturmian", "00110"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "Refuted: P(2)=4 > 3\n", "")


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = _run(
        capsys, "word", "erase", "--letter", "2", "--file", str(tmp_path / "nope")
    )
    assert code == 2
    assert err.startswith("error:")


def test_parser_is_cached():
    assert build_parser() is build_parser()


def test_analyze_refuses_input_longer_than_length(capsys, tmp_path):
    # Cutting the input to --length would hide the refuting tail.
    path = tmp_path / "word.txt"
    path.write_text(fib_prefix(12_000) + "0011\n")
    code, out, err = _run(capsys, "analyze", "sturmian", "--file", str(path))
    assert code == 2 and out == ""
    assert err == "error: input has 12004 letters, more than --length 10000\n"
    code, out, err = _run(
        capsys, "analyze", "sturmian", "--file", str(path), "--length", "20000"
    )
    assert code == 1 and err == ""
    assert out == "Refuted: P(2)=4 > 3\n"


@pytest.mark.parametrize("n", ["33", "1000000000000"])
def test_psi_above_ceiling_exits_two(capsys, n):
    # psi_33(0) would have 11,405,774 letters; refused before anything is built.
    code, out, err = _run(capsys, "mse", "psi", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: --n {n} exceeds the ceiling 32\n"
