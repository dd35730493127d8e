"""The cli-cold workload: each `wse` command is a fresh process.

One client runs a closed loop over cycles of 35 commands.  A cycle holds
every README command once, in the format its position selects (so three
cycles cover text, json and csv), plus refutations (exit 1), usage errors
(exit 2), stdin and --file input, mid-length prefixes and one deep-chain
`st decompose`.  Expected output comes from the README's answers and from
`oracles`.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O

ENTRY = "import sys; from sturmian_erasures.cli import main; main()"
FORMATS = ("text", "json", "csv")
TIMEOUT_S = 60
TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Command:
    argv: list
    exit_code: int
    check: Callable  # stdout -> None when correct, else a message
    kind: str
    stdin: str = ""
    known_defect: str | None = None  # stderr text of the recorded defect


def _lines(expected):
    # csv.writer ends its rows with \r\n; every other line ends with \n.
    return lambda out: None if out.replace("\r\n", "\n") == expected + "\n" else \
        f"stdout {out[:60]!r}"


def _json(expected):
    def check(out):
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:60]!r}"
        return None if got == expected else f"json {out[:60]!r}"

    return check


def _by_format(fmt, text, payload, csv_text=None):
    if fmt == "json":
        return _json(payload)
    return _lines(csv_text if fmt == "csv" and csv_text is not None else text)


def _word_cmd(argv, fmt, word, kind, stdin=""):
    return Command(argv + ["--format", fmt], 0, _by_format(fmt, word, {"word": word}), kind, stdin)


def _complexity_cmd(argv, fmt, word, max_n, kind, stdin=""):
    counts = O.factor_counts(word, max_n)
    text = "\n".join(f"P({n}) = {c}" for n, c in counts.items())
    csv_text = "n,count\n" + "\n".join(f"{n},{c}" for n, c in counts.items())
    payload = {str(n): c for n, c in counts.items()}
    return Command(argv + ["--format", fmt], 0, _by_format(fmt, text, payload, csv_text), kind,
                   stdin)


def _sturmian_cmd(argv, fmt, word, kind):
    consistent, witness, coverage = O.sturmian_expectation(word, min(30, len(word)))
    if consistent:
        text, payload = f"Consistent up to n = {coverage}", {"verdict": "consistent",
                                                              "coverage": coverage}
    else:
        text, payload = f"Refuted: {witness}", {"verdict": "refuted", "witness": witness}
    return Command(argv + ["--format", fmt], 0 if consistent else 1,
                   _by_format(fmt, text, payload), kind)


def _wse_cmd(argv, fmt, word, kind, stdin=""):
    per, witness = O.wse_expectation(word, min(30, len(word)))
    lines, erasures = [], {}
    for letter, (ok, sub, coverage) in per.items():
        if ok:
            lines.append(f"erasure {letter}: consistent up to n = {coverage}")
            erasures[letter] = {"verdict": "consistent", "coverage": coverage}
        else:
            lines.append(f"erasure {letter}: refuted, {sub}")
            erasures[letter] = {"verdict": "refuted", "witness": sub}
    consistent = witness is None
    lines.append("Consistent" if consistent else f"Refuted: {witness}")
    payload = {"verdict": "consistent" if consistent else "refuted", "witness": witness,
               "erasures": erasures}
    return Command(argv + ["--format", fmt], 0 if consistent else 1,
                   _by_format(fmt, "\n".join(lines), payload), kind, stdin)


def _certificate_lines(spec_images, fmt):
    """`st decompose`: the factors must recompose to the spec."""

    def check(out):
        if fmt == "json":
            try:
                factors = json.loads(out)
            except ValueError:
                return f"stdout is not JSON: {out[:60]!r}"
        else:
            first = out.splitlines()[0] if out else ""
            if not first.startswith("factors: "):
                return f"stdout {out[:60]!r}"
            factors = first[len("factors: "):].split(",")
            factors = [] if factors == ["id"] else factors
        try:
            images = O.recompose_factors(factors)
        except KeyError:
            return f"unknown factor in {factors}"
        return None if images == spec_images else "factors do not recompose to the spec"

    return check


def _mse_member_check(images, fmt):
    i = next(a for a in "012" if images[a] == "")

    def check(out):
        if fmt == "json":
            try:
                got = json.loads(out)
            except ValueError:
                return f"stdout is not JSON: {out[:60]!r}"
            if got.get("verdict") != "erasing-member" or got.get("erased") != i:
                return f"json {out[:60]!r}"
            certs = got["certificates"]
        else:
            lines = out.splitlines()
            if not lines or lines[0] != f"ErasingMember (erases {i})":
                return f"stdout {out[:60]!r}"
            certs = {}
            for line in lines[1:]:
                head, factors = line.split(": ", 1)
                certs[head.split()[1]] = [] if factors == "id" else factors.split(",")
        for j in "012":
            if j not in certs:
                return f"no certificate for erasure {j}"
            if O.recompose_factors(certs[j]) != O.projection(images, i, j):
                return f"certificate for erasure {j} does not recompose"
        return None

    return check


def _composite_check(f_spec, fmt):
    f = O.parse_spec(f_spec)

    def check(out):
        if fmt == "json":
            try:
                got = json.loads(out)
            except ValueError:
                return f"stdout is not JSON: {out[:60]!r}"
            if got.get("verdict") != "composite-certified":
                return f"json {out[:60]!r}"
            g, h = got["g"], got["h"]
        else:
            lines = out.splitlines()
            if len(lines) != 3 or lines[0] != "CompositeCertified":
                return f"stdout {out[:60]!r}"
            g, h = lines[1][len("g: "):], lines[2][len("h: "):]
        ok = O.compose_images(O.parse_spec(g), O.parse_spec(h)) == f
        return None if ok else "g o h differs from the spec"

    return check


def _psi_check(n, fmt):
    ref = O.psi_images(n)
    spec = O.format_spec(ref)
    parts = {key: O.format_spec({a: O.erase_letter(ref[a], e) for a in "012"})
             for key, e in (("f", "2"), ("g", "1"), ("h", "0"))}
    return _by_format(fmt, spec, {"n": n, "psi": spec, **parts})


def _event_log(d, rho, length, fmt):
    """Events of a rational billiard from the Fraction reference."""
    events = []
    heads = {}
    for i, (x, r) in enumerate(zip(d, rho)):
        if x:
            heads[i] = (0 if r == 0 else 1, Fraction(x), Fraction(r))
    while len(events) < length:
        times = {i: (m - r) / x for i, (m, x, r) in heads.items()}
        least = min(times.values())
        omega = [i for i in sorted(times) if times[i] == least]
        events.append({"t": str(least), "omega": omega})
        for i in omega:
            m, x, r = heads[i]
            heads[i] = (m + 1, x, r)
    if fmt == "json":
        return _json(events)
    if fmt == "csv":
        rows = "\n".join(f"{e['t']},{''.join(map(str, e['omega']))}" for e in events)
        return _lines("t,omega\n" + rows)
    return _lines("".join("".join(map(str, e["omega"])) for e in events))


def readme_commands(fmt_of, wse_file, wse_word):
    """Every README command; fmt_of(position) picks its format.  The
    README's `analyze wse --file word.txt` reads `wse_word` from `wse_file`."""
    fmts = [fmt_of(i) for i in range(19)]
    fib = O.fibonacci_word(10_000)
    golden_cf = O.quadratic_cf(-3, 5, -2, 64)
    ternary = "0102010010201020100102"
    classify_text = "nilpotent: 2\npermuting: 01\ncore: 01\nexpansive: -"
    classify_json = {"nilpotent": ["2"], "permuting": ["0", "1"], "core": ["0", "1"],
                     "expansive": []}
    matrix_json = {"rows": [[1, 1], [1, 0]], "row_letters": "01", "col_letters": "01"}
    mse_spec = "0=02,1=10,2="
    return [
        _word_cmd(["word", "fib", "--length", "13"], fmts[0], "0100101001001", "readme"),
        _word_cmd(["word", "mechanical", "--alpha", "(3-sqrt(5))/2"], fmts[1],
                  O.standard_mechanical(golden_cf, 10_000), "readme-heavy"),
        _word_cmd(["word", "fixed-point", "--spec", "0=01,1=0"], fmts[2], fib, "readme"),
        _word_cmd(["word", "erase", "--letter", "2", "0210020210"], fmts[3], "0100010", "readme"),
        _complexity_cmd(["analyze", "complexity", "00110", "--max-n", "2"], fmts[4], "00110", 2,
                        "readme"),
        _sturmian_cmd(["analyze", "sturmian", "00110"], fmts[5], "00110", "readme"),
        _wse_cmd(["analyze", "wse"], fmts[6], ternary, "readme", stdin=ternary),
        _word_cmd(["morphism", "apply", "--spec", "0=02,1=10,2=", "010"], fmts[7], "021002",
                  "readme"),
        Command(["morphism", "compose", "--spec", "0=0,1=1,2=012", "--with", "0=02,1=10,2=",
                 "--format", fmts[8]], 0,
                _by_format(fmts[8], O.format_spec(O.compose_images(
                    O.parse_spec("0=0,1=1,2=012"), O.parse_spec("0=02,1=10,2="))),
                    {"morphism": "0=0012,1=10,2="}), "readme"),
        Command(["morphism", "matrix", "--spec", "0=01,1=0", "--format", fmts[9]], 0,
                _by_format(fmts[9], "1 1\n1 0", matrix_json, "0,1\n1,1\n1,0"), "readme"),
        Command(["morphism", "det", "--spec", "0=01,1=0", "--format", fmts[10]], 0,
                _by_format(fmts[10], "-1", {"det": -1}), "readme"),
        Command(["morphism", "classify", "--spec", "0=0,1=1,2=", "--format", fmts[11]], 0,
                _by_format(fmts[11], classify_text, classify_json), "readme"),
        Command(["st", "decompose", "--spec", "0=010,1=0", "--format", fmts[12]], 0,
                _and(_certificate_lines({"0": "010", "1": "0"}, fmts[12]),
                     _by_format(fmts[12], "factors: phi,E,phit\ndegree: 2",
                                ["phi", "E", "phit"])), "readme"),
        Command(["mse", "check", "--spec", mse_spec, "--format", fmts[13]], 0,
                _mse_member_check(O.parse_spec(mse_spec), fmts[13]), "readme"),
        Command(["mse", "prime", "--spec", "0=0102,1=01,2=", "--format", fmts[14]], 0,
                _composite_check("0=0102,1=01,2=", fmts[14]), "readme"),
        Command(["mse", "psi", "--n", "2", "--format", fmts[15]], 0, _psi_check(2, fmts[15]),
                "readme"),
        Command(["billiard", "code", "--d", "1,1,0", "--rho", "0,1/2,0", "--length", "8",
                 "--format", fmts[16]], 0,
                _event_log([1, 1, 0], [0, Fraction(1, 2), 0], 8, fmts[16]), "readme"),
        Command(["billiard", "classify", "--d", "1,sqrt(2),sqrt(3)", "--format", fmts[17]], 0,
                _by_format(fmts[17], "WSECandidate", {"class": "WSECandidate"}), "readme"),
        _wse_cmd(["analyze", "wse", "--file", wse_file], fmts[18], wse_word, "readme"),
    ]


def _and(*checks):
    def check(out):
        for c in checks:
            msg = c(out)
            if msg:
                return msg
        return None

    return check


def _usage(argv, kind):
    return Command(argv, 2, lambda out: None if out == "" else f"stdout {out[:60]!r}", kind)


class CliWorkload:
    unit = "commands"
    cycle_len = 35
    min_commands = 100

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self, rng):
        self.work = self.out_dir / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.member = O.apply_images(O.parse_spec("0=02,1=10,2="), O.fibonacci_word(4000))
        self.refuted = O.apply_images(
            O.compose_images(O.parse_spec("0=0,1=1,2=012"), O.parse_spec("0=02,1=10,2=")),
            O.fibonacci_word(4000))
        for argv in (["word", "fib", "--length", "5"], ["morphism", "det", "--spec", "0=1,1=0"]):
            code, _out, _err, _rss = self.spawn(argv, "")
            if code != 0:
                raise RuntimeError(f"warm-up command {argv} exited {code}")

    def cycle(self, rng, index):
        """The index-th cycle of commands, in a seeded order."""
        # Sizes of the slower commands stay fixed, so that each cycle costs
        # about the same; the seed picks their words, slopes and offsets.
        # analyze wse --file: a member image or the refuted image, seeded.
        start = rng.randrange(2000)
        word = (self.member if index % 2 else self.refuted)[start : start + 1000]
        path = self._write(f"wse-{index}.txt", word)
        cmds = readme_commands(lambda pos: FORMATS[(pos + index) % 3], path, word)
        fmt = FORMATS[index % 3]

        fib = O.fibonacci_word(3000)
        unbalanced = "0011" + fib[: rng.randint(40, 400)]
        cmds += [
            Command(["st", "decompose", "--spec", "0=01,1=01"], 1,
                    lambda out: None if out.startswith("Rejected: determinant") else
                    f"stdout {out[:60]!r}", "refutation"),
            Command(["mse", "check", "--spec", "0=01,1=0,2=1"], 1,
                    lambda out: None if out.startswith("Rejected: not-permutation-no-erased-letter")
                    else f"stdout {out[:60]!r}", "refutation"),
            _sturmian_cmd(["analyze", "sturmian", unbalanced], fmt, unbalanced, "refutation"),
            _usage(["word", "fib", "--length", "many"], "usage"),
            _usage(["frobnicate"], "usage"),
            _usage(["morphism", "det", "--spec", "0=01"], "usage"),
            _usage(["analyze", "complexity", "--file", str(self.work / "missing.txt")], "usage"),
        ]
        stdin_word = "".join(rng.choice("012") for _ in range(rng.randint(100, 400)))
        cmds.append(_word_cmd(["word", "erase", "--letter", "1"], fmt,
                              O.erase_letter(stdin_word, "1"), "stdin", stdin=stdin_word))
        cpx_word = fib[: rng.randint(200, 800)]
        cmds.append(_complexity_cmd(["analyze", "complexity", "--max-n", "8"], fmt, cpx_word, 8,
                                    "stdin", stdin=cpx_word))
        spec = rng.choice(("0=02,1=10,2=", "0=0102,1=01,2=", "0=2010,1=01,2="))
        apply_word = fib[: rng.randint(200, 800)]
        cmds.append(_word_cmd(["morphism", "apply", "--spec", spec, "--file",
                               self._write(f"apply-{index}.txt", apply_word)], fmt,
                              O.apply_images(O.parse_spec(spec), apply_word), "file"))

        n = 300
        cmds.append(Command(
            ["billiard", "code", "--d", "1,sqrt(2),sqrt(5)", "--rho", "0,0,0", "--length", str(n)],
            0, _lines(O.billiard_code([O.sqrt_times(1, s) for s in (1, 2, 5)], n)), "prefix"))
        cmds.append(Command(
            ["billiard", "code", "--d", "1,sqrt(2),2*sqrt(2)", "--rho", "0,0,0", "--length",
             str(n)], 0,
            _lines(O.billiard_code([O.sqrt_times(c, s) for c, s in ((1, 1), (1, 2), (2, 2))],
                                   n)), "prefix"))
        d = rng.choice((2, 3, 5, 6, 7, 8, 10, 11, 12, 13))
        a, n = math.isqrt(d), 2000
        cmds.append(_word_cmd(["word", "mechanical", "--alpha", f"sqrt({d})-{a}", "--length",
                               str(n)], fmt,
                              O.standard_mechanical(O.quadratic_cf(-a, d, 1, 64), n), "prefix"))
        q = rng.randint(5, 40)
        p, u = rng.randint(1, q - 1), rng.randrange(q)
        cmds.append(_word_cmd(["word", "mechanical", "--alpha", f"{p}/{q}", "--rho", f"{u}/{q}",
                               "--length", str(n)], fmt, O.rational_mechanical(p, q, u, n),
                              "prefix"))
        n = rng.randint(2900, 3100)
        cmds.append(_word_cmd(["word", "fib", "--length", str(n)], fmt, O.fibonacci_word(n),
                              "prefix"))

        k = rng.randint(1700, 1800)
        chain = {"0": "0", "1": "0" * k + "1"}
        cmds.append(Command(["st", "decompose", "--spec", O.format_spec(chain)], 0,
                            _certificate_lines(chain, "text"), "deep-chain",
                            known_defect="RecursionError"))
        if len(cmds) != self.cycle_len:
            raise RuntimeError(f"cycle has {len(cmds)} commands, expected {self.cycle_len}")
        rng.shuffle(cmds)
        return cmds

    def _write(self, name, text):
        path = self.work / name
        path.write_text(text, encoding="ascii")
        return str(path)

    def spawn(self, argv, stdin):
        """Run one command as a fresh process: (exit code, stdout, stderr,
        peak RSS in KiB) from this child's own resource usage."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY, *argv], cwd=self.root, env=self.env,
                stdin=subprocess.PIPE, stdout=out, stderr=err,
            )
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                if stdin:
                    proc.stdin.write(stdin.encode("ascii"))
                proc.stdin.close()
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode("ascii", "replace"),
                    err.read().decode("ascii", "replace"), usage.ru_maxrss)

    def judge(self, cmd, code, out, err):
        """None when the command behaved, else a failure message."""
        if TRACEBACK in err:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            return f"traceback: {last[:80]}"
        if code != cmd.exit_code:
            return f"exit {code}, expected {cmd.exit_code}"
        return cmd.check(out)

    def expected_failure(self, cmd, err):
        return cmd.known_defect is not None and cmd.known_defect in err


def replay(cmd):
    """Run one command in-process through cli.run: (exit code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from sturmian_erasures import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(cmd.stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.run(list(cmd.argv))
            except Exception as exc:  # an uncaught error is a traceback in a real process
                err.write(f"{TRACEBACK}:\n{type(exc).__name__}: {exc}\n")
                code = 1
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def spawn_ms(argv, env, root, count):
    """Median wall time of `count` runs of a bare python command, in ms."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - t0) * 1000)
    samples.sort()
    return samples[len(samples) // 2]
