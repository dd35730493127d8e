"""Command-line front end.

Exit status: 0 when the analysis accepts (or simply reports), 1 when a
verdict refutes or rejects, 2 on usage or input errors; a closed stdout, or a
reader that closes it early, changes neither the exit code nor stderr.  Words
are read from the positional argument, from --file, or from standard input.
A stream closed at start reads or writes as os.devnull: a closed stdin is
an empty word, and a closed stderr leaves an error's message unwritten.
Generated prefixes and morphism images are at most MAX_LENGTH (10^7) letters
long, and `analyze` refuses an input longer than its --length.

Every command is one handler in COMMANDS.  A handler returns
(exit code, JSON payload, text lines, CSV rows or None), and `_emit` prints
the view that --format selects.  Library records are plain data: each view
of one is built here, by the handler that prints it.  Handlers reach the library through the
package's lazy exports, so a command loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from functools import lru_cache, partial
from itertools import chain, islice

import sturmian_erasures as lib

__all__ = ["build_parser", "run", "main"]

DEFAULT_LENGTH = 10_000
DEFAULT_MAX_N = 30
# Generated prefixes and images are built in memory, so their length is capped.
MAX_LENGTH = 10_000_000


def _emit(fmt, payload, lines, rows):
    """Print one view of a result; commands without a CSV view print text."""
    if fmt == "json":
        import json

        if isinstance(payload, Iterator):
            # A log written item by item, so memory stays flat in its length:
            # the bytes json.dumps would give for the whole list.
            encode = json.JSONEncoder(sort_keys=True).encode
            sys.stdout.write("[")
            for i, item in enumerate(payload):
                sys.stdout.write((", " if i else "") + encode(item))
            print("]")
        else:
            print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv" and rows is not None:
        import csv

        csv.writer(sys.stdout).writerows(rows)
    else:
        for line in lines:
            print(line)


def _read_word(args, keep=sys.maxsize):
    """The input word without whitespace, read in blocks; past `keep` letters only counted.
    A file is read as bytes and decoded block by block, so that a non-ASCII
    byte is reported at its offset in the file."""
    if args.word is not None:
        source = io.StringIO(args.word)
    elif args.file is not None:
        source = open(args.file, "rb")
    else:
        source = nullcontext(sys.stdin)  # left open: run() may be called again
    kept, count, offset = [], 0, 0
    with source as fh:
        for block in iter(partial(fh.read, 1 << 16), fh.read(0)):
            try:
                text = block if isinstance(block, str) else block.decode("ascii")
            except UnicodeDecodeError as exc:
                raise ValueError(f"'ascii' codec can't decode byte {block[exc.start]:#04x} "
                                 f"in position {offset + exc.start}: {exc.reason}") from None
            offset += len(block)
            letters = "".join(text.split())
            count += len(letters)
            if count <= keep:
                kept.append(letters)
    if count > keep:
        raise ValueError(f"input has {count} letters, more than --length {keep}")
    return "".join(kept)


def _capped(what, value, ceiling=MAX_LENGTH):
    """The value, or a ValueError when it is above the ceiling; callers check
    a size before they build anything of that size."""
    if value > ceiling:
        raise ValueError(f"{what} {value} exceeds the ceiling {ceiling}")
    return value


def _image_length(f, words):
    """Letters in the images of the words under f, from letter counts alone."""
    return sum(len(image) * w.count(a) for w in words for a, image in f.images.items())


def _word(word):
    return 0, {"word": word}, [word], None


def _cmd_word_fib(args):
    return _word(lib.fibonacci_stream().prefix(_capped("--length", args.length)))


def _cmd_word_mechanical(args):
    length = _capped("--length", args.length)
    stream = lib.mechanical_stream(lib.parse_number(args.alpha), lib.parse_number(args.rho))
    return _word(stream.prefix(length))


def _cmd_word_fixed_point(args):
    length = _capped("--length", args.length)
    return _word(lib.fixed_point_stream(lib.parse_morphism(args.spec), args.seed).prefix(length))


def _cmd_word_erase(args):
    return _word(lib.erase(_read_word(args), args.letter))


def _analysis_input(args):
    if args.length < 0:
        raise ValueError("length must be >= 0")
    word = _read_word(args, args.length)
    if not word:
        raise ValueError("empty input word")
    return word, min(args.max_n, len(word))


def _cmd_analyze_complexity(args):
    word, max_n = _analysis_input(args)
    profile = lib.complexity(word, max_n)
    counts = sorted(profile.counts.items())
    lines = [f"P({n}) = {count}" for n, count in counts]
    return 0, {str(n): count for n, count in counts}, lines, [("n", "count"), *counts]


def _cmd_analyze_balance(args):
    word, max_n = _analysis_input(args)
    profile = lib.balance_order(word, max_n)
    imbalance = sorted(profile.imbalance.items())
    payload = {"order": profile.order, "imbalance": {str(n): i for n, i in imbalance}}
    lines = [f"imbalance({n}) = {i}" for n, i in imbalance] + [f"order = {profile.order}"]
    return 0, payload, lines, [("n", "imbalance"), *imbalance]


def _sturmian(verdict):
    """The JSON view of a SturmianVerdict, alone or as one erasure of a WSEVerdict."""
    if verdict.consistent:
        return {"verdict": "consistent", "coverage": verdict.coverage}
    return {"verdict": "refuted", "witness": verdict.witness}


def _cmd_analyze_sturmian(args):
    word, max_n = _analysis_input(args)
    verdict = lib.sturmian_verdict(lib.complexity(word, max_n), lib.balance_order(word, max_n))
    ok = verdict.consistent
    line = f"Consistent up to n = {verdict.coverage}" if ok else f"Refuted: {verdict.witness}"
    return 0 if ok else 1, _sturmian(verdict), [line], None


def _cmd_analyze_wse(args):
    word, max_n = _analysis_input(args)
    verdict = lib.wse_verdict(word, max_n)
    lines = [
        f"erasure {i}: consistent up to n = {sub.coverage}"
        if sub.consistent
        else f"erasure {i}: refuted, {sub.witness}"
        for i, sub in verdict.per_erasure.items()
    ]
    lines.append("Consistent" if verdict.consistent else f"Refuted: {verdict.witness}")
    payload = {"verdict": "consistent" if verdict.consistent else "refuted",
               "witness": verdict.witness,
               "erasures": {i: _sturmian(sub) for i, sub in verdict.per_erasure.items()}}
    return 0 if verdict.consistent else 1, payload, lines, None


def _cmd_morphism_apply(args):
    f, word = lib.parse_morphism(args.spec), _read_word(args)
    _capped("image length", _image_length(f, [word]))
    return _word(f(word))


def _cmd_morphism_compose(args):
    outer = lib.parse_morphism(args.spec)
    inner = lib.parse_morphism(getattr(args, "with"))
    _capped("image length", _image_length(outer, inner.images.values()))
    text = lib.format_morphism(lib.compose(outer, inner))
    return 0, {"morphism": text}, [text], None


def _cmd_morphism_matrix(args):
    m = lib.incidence(lib.parse_morphism(args.spec))
    rows = [list(row) for row in m.rows]
    payload = {"rows": rows, "row_letters": m.row_letters, "col_letters": m.col_letters}
    lines = [" ".join(map(str, row)) for row in rows]
    return 0, payload, lines, [list(m.col_letters), *rows]


def _cmd_morphism_det(args):
    det = lib.determinant(lib.incidence(lib.parse_morphism(args.spec)))
    return 0, {"det": det}, [det], None


def _cmd_morphism_classify(args):
    c = lib.classify_letters(lib.parse_morphism(args.spec))
    parts = {
        "nilpotent": sorted(c.nilpotent),
        "permuting": sorted(c.permuting),
        "core": sorted(c.permuting_core),
        "expansive": sorted(c.expansive),
    }
    lines = [f"{name}: {''.join(letters) or '-'}" for name, letters in parts.items()]
    return 0, parts, lines, None


def _cmd_st_decompose(args):
    outcome = lib.st_membership(lib.parse_morphism(args.spec))
    if isinstance(outcome, lib.StRejection):
        payload = {"rejected": outcome.reason, "detail": outcome.detail}
        return 1, payload, [f"Rejected: {outcome.reason} ({outcome.detail})"], None
    lines = [f"factors: {','.join(outcome.factors) or 'id'}", f"degree: {outcome.degree}"]
    return 0, list(outcome.factors), lines, None


def _cmd_mse_check(args):
    verdict = lib.mse_membership(lib.parse_morphism(args.spec))
    if verdict.kind == "permutation":
        payload, lines = {"verdict": "permutation"}, ["Permutation"]
    elif verdict.kind == "erasing-member":
        certificates = verdict.certificates.items()
        payload = {"verdict": "erasing-member", "erased": verdict.erased,
                   "certificates": {j: list(cert.factors) for j, cert in certificates}}
        lines = [f"ErasingMember (erases {verdict.erased})"] + [
            f"erasure {j}: {','.join(cert.factors) or 'id'}" for j, cert in certificates
        ]
    else:
        payload = {"verdict": "rejected", "reason": verdict.reason, "witness": verdict.witness}
        lines = [f"Rejected: {verdict.reason} ({verdict.witness})"]
    return 0 if verdict.accepted else 1, payload, lines, None


def _cmd_mse_prime(args):
    f = lib.parse_morphism(args.spec)
    # A morphism not on 012 raises here, an input error; a non-member is a verdict.
    member = lib.mse_membership(f)
    if not member.accepted:
        reason = f"not an erasing member: {member.reason}"
        return 1, {"verdict": "rejected", "reason": reason}, [f"Rejected: {reason}"], None
    verdict = lib.primality(f)
    label = verdict.kind.title().replace("-", "")  # prime-certified -> PrimeCertified
    payload = {"verdict": verdict.kind, "note": verdict.note}
    lines = [f"{label}: {verdict.note}" if verdict.note else label]
    if verdict.g_factor is not None:
        payload["g"] = lib.format_morphism(verdict.g_factor)
        payload["h"] = lib.format_morphism(verdict.h_factor)
        lines += [f"g: {payload['g']}", f"h: {payload['h']}"]
    return 0, payload, lines, None


def _psi_ceiling():
    """Largest n whose image psi_n(0) has at most MAX_LENGTH letters."""
    # (|psi_m(0)|, |psi_m(1)|) = (a_m, b_m) with a_m = 2·a_(m-2) + b_(m-2) and
    # b_m = a_(m-1), from (a_1, b_1) = (2, 2) and (a_2, b_2) = (4, 2): the
    # recurrence psi builds its images by.  a_m grows about 1.62x per step.
    n, prev, cur = 2, (2, 2), (4, 2)
    while 2 * prev[0] + prev[1] <= MAX_LENGTH:
        n, prev, cur = n + 1, cur, (2 * prev[0] + prev[1], cur[0])
    return n


def _cmd_mse_psi(args):
    # Refused before any image is built: psi_n takes memory exponential in n.
    family = lib.psi(_capped("--n", args.n, _psi_ceiling()))
    parts = {part: lib.format_morphism(getattr(family, part)) for part in ("psi", "f", "g", "h")}
    return 0, {"n": family.n, **parts}, [parts["psi"]], None


def _parse_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated expressions, got {text!r}")
    return tuple(lib.parse_number(p) for p in parts)


def _billiard_config(args):
    return lib.BilliardConfig(d=_parse_triple(args.d), rho=_parse_triple(args.rho))


def _cmd_billiard_code(args):
    length = _capped("--length", args.length)
    config = _billiard_config(args)
    if length < 0:
        raise ValueError("length must be >= 0")
    # All three views are lazy: only the one printed is ever built or generated,
    # and the event log is written event by event, so memory stays flat in --length.
    events = islice(lib.event_stream(config), length)
    log = ({"t": str(e.t), "omega": list(e.omega)} for e in events)
    rows = chain([("t", "omega")], ([str(e.t), "".join(map(str, e.omega))] for e in events))
    return 0, log, (lib.billiard_word(config).prefix(n) for n in [length]), rows


def _cmd_billiard_classify(args):
    kind = lib.classify(_billiard_config(args))
    return 0, {"class": kind}, [kind], None


# Arguments are (flag, add_argument keywords).
_LENGTH = ("--length", dict(type=int, default=DEFAULT_LENGTH,
                            help=f"prefix length (at most {MAX_LENGTH})"))
_WORD = [
    ("word", dict(nargs="?", help="input word (default: --file or stdin)")),
    ("--file", dict(help="read the input word from a file")),
]
_ANALYZE = _WORD + [
    ("--max-n", dict(type=int, default=DEFAULT_MAX_N, dest="max_n")),
    ("--length", dict(type=int, default=DEFAULT_LENGTH, help="longest input analyzed")),
]
_SPEC = [("--spec", dict(required=True))]
_FORMAT = ("--format", dict(choices=("text", "json", "csv"), default="text",
                            help="output format (default text)"))

# group -> (help, {name: (help or None, handler, arguments before --format)}).
# A command without help is left out of its group's listing.
COMMANDS = {
    "word": ("generate and transform words", {
        "fib": ("prefix of the Fibonacci word", _cmd_word_fib, [_LENGTH]),
        "mechanical": ("mechanical word for slope/intercept", _cmd_word_mechanical, [
            ("--alpha", dict(required=True, help="slope, e.g. '(3-sqrt(5))/2'")),
            ("--rho", dict(default="0", help="intercept (default 0)")),
            _LENGTH,
        ]),
        "fixed-point": ("fixed point of a morphism", _cmd_word_fixed_point, [
            ("--spec", dict(required=True, help="morphism, e.g. '0=01,1=0'")),
            ("--seed", dict(default="0", help="starting letter (default 0)")),
            _LENGTH,
        ]),
        "erase": ("erase one letter from a word", _cmd_word_erase, [
            ("--letter", dict(required=True, choices=list("012"))),
            *_WORD,
        ]),
    }),
    "analyze": ("analyze a finite word", {
        "complexity": (None, _cmd_analyze_complexity, _ANALYZE),
        "balance": (None, _cmd_analyze_balance, _ANALYZE),
        "sturmian": (None, _cmd_analyze_sturmian, _ANALYZE),
        "wse": (None, _cmd_analyze_wse, _ANALYZE),
    }),
    "morphism": ("operate on morphisms", {
        "apply": ("apply a morphism to a word", _cmd_morphism_apply, _SPEC + _WORD),
        "compose": ("compose --spec after --with", _cmd_morphism_compose, [
            ("--spec", dict(required=True, help="outer morphism")),
            ("--with", dict(required=True, help="inner morphism")),
        ]),
        "matrix": (None, _cmd_morphism_matrix, _SPEC),
        "det": (None, _cmd_morphism_det, _SPEC),
        "classify": (None, _cmd_morphism_classify, _SPEC),
    }),
    "st": ("Sturmian morphism monoid", {
        "decompose": ("generator certificate or rejection", _cmd_st_decompose, [
            ("--spec", dict(required=True, help="two-letter morphism")),
        ]),
    }),
    "mse": ("erasure-aware ternary morphisms", {
        "check": ("membership with certificates", _cmd_mse_check, _SPEC),
        "prime": ("prime/composite certificates", _cmd_mse_prime, _SPEC),
        "psi": ("n-th member of the prime family", _cmd_mse_psi, [
            ("--n", dict(type=int, required=True)),
        ]),
    }),
    "billiard": ("cubic billiard codings", {
        "code": ("coding word or event log", _cmd_billiard_code, [
            ("--d", dict(required=True, help="direction, three expressions")),
            ("--rho", dict(required=True, help="starting point, three expressions")),
            _LENGTH,
        ]),
        "classify": ("trajectory type from the direction", _cmd_billiard_classify, [
            ("--d", dict(required=True)),
            ("--rho", dict(default="0,0,0")),
        ]),
    }),
}


@lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="wse",
        description="Sturmian words, erasure-aware ternary morphisms, "
        "and exact billiard codings.",
    )
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        names = group_parser.add_subparsers(dest="subcommand", required=True)
        for name, (help_text, handler, arguments) in commands.items():
            p = names.add_parser(name, **({"help": help_text} if help_text else {}))
            for flag, options in [*arguments, _FORMAT]:
                p.add_argument(flag, **options)
            p.set_defaults(handler=handler)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, *view = args.handler(args)
        try:
            _emit(args.format, *view)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout: what it read stands.  Point fd 1 at
            # devnull, so the flush at exit writes nowhere instead of failing.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    # Started with fd 0, 1 or 2 closed, as by `wse ... <&-`: use devnull.
    for name, mode in (("stdin", "r"), ("stdout", "w"), ("stderr", "w")):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, mode))
    raise SystemExit(run())


if __name__ == "__main__":
    main()
