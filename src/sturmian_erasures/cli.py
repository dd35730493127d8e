"""Command-line front end.

Exit status: 0 when the analysis accepts (or simply reports), 1 when a
verdict refutes or rejects, 2 on usage or input errors.  Words are read from
the positional argument, from --file, or from standard input.  Generated
prefixes are at most MAX_LENGTH (10^7) letters long.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import lru_cache
from itertools import islice

from .billiard import BilliardConfig, billiard_word, classify, event_stream
from .exactnum import parse_number
from .monoid import StRejection, st_membership
from .morphisms import (
    classify_letters,
    compose,
    determinant,
    format_morphism,
    incidence,
    parse_morphism,
)
from .mse import mse_membership, primality, psi
from .words import (
    BoundedOutputError,
    balance_order,
    complexity,
    erase,
    fibonacci_stream,
    fixed_point_stream,
    mechanical_stream,
    sturmian_verdict,
    wse_verdict,
)

__all__ = ["build_parser", "parse_morphism_spec", "run", "main"]

DEFAULT_LENGTH = 10_000
DEFAULT_MAX_N = 30
# Generated prefixes are built in memory, so their length is capped.
MAX_LENGTH = 10_000_000


def parse_morphism_spec(text):
    """Morphism from the text format `0=02,1=10,2=`."""
    return parse_morphism(text)


def _add_format(p):
    p.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )


def _add_word_input(p):
    p.add_argument("word", nargs="?", help="input word (default: --file or stdin)")
    p.add_argument("--file", help="read the input word from a file")


def _read_word(args):
    if args.word is not None:
        text = args.word
    elif args.file is not None:
        with open(args.file, encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return "".join(text.split())


def _print_json(payload):
    print(json.dumps(payload, sort_keys=True))


def _print_csv(header, rows):
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _emit_word(args, word):
    if args.format == "json":
        _print_json({"word": word})
    else:
        print(word)
    return 0


def _generated_length(args):
    if args.length > MAX_LENGTH:
        raise ValueError(f"--length {args.length} exceeds the ceiling {MAX_LENGTH}")
    return args.length


def _cmd_word_fib(args):
    return _emit_word(args, fibonacci_stream().prefix(_generated_length(args)))


def _cmd_word_mechanical(args):
    length = _generated_length(args)
    stream = mechanical_stream(parse_number(args.alpha), parse_number(args.rho))
    return _emit_word(args, stream.prefix(length))


def _cmd_word_fixed_point(args):
    length = _generated_length(args)
    f = parse_morphism_spec(args.spec)
    return _emit_word(args, fixed_point_stream(f, args.seed).prefix(length))


def _cmd_word_erase(args):
    return _emit_word(args, erase(_read_word(args), args.letter))


def _analysis_input(args):
    word = _read_word(args)[: args.length]
    if not word:
        raise ValueError("empty input word")
    return word, min(args.max_n, len(word))


def _cmd_analyze_complexity(args):
    word, max_n = _analysis_input(args)
    profile = complexity(word, max_n)
    if args.format == "json":
        _print_json(profile.to_json())
    elif args.format == "csv":
        _print_csv(["n", "count"], sorted(profile.counts.items()))
    else:
        for n in sorted(profile.counts):
            print(f"P({n}) = {profile.counts[n]}")
    return 0


def _cmd_analyze_balance(args):
    word, max_n = _analysis_input(args)
    profile = balance_order(word, max_n)
    if args.format == "json":
        _print_json(
            {
                "order": profile.order,
                "imbalance": {str(n): profile.imbalance[n] for n in profile.imbalance},
            }
        )
    elif args.format == "csv":
        _print_csv(["n", "imbalance"], sorted(profile.imbalance.items()))
    else:
        for n in sorted(profile.imbalance):
            print(f"imbalance({n}) = {profile.imbalance[n]}")
        print(f"order = {profile.order}")
    return 0


def _cmd_analyze_sturmian(args):
    word, max_n = _analysis_input(args)
    verdict = sturmian_verdict(complexity(word, max_n), balance_order(word, max_n))
    if args.format == "json":
        _print_json(verdict.to_json())
    elif verdict.consistent:
        print(f"Consistent up to n = {verdict.coverage}")
    else:
        print(f"Refuted: {verdict.witness}")
    return 0 if verdict.consistent else 1


def _cmd_analyze_wse(args):
    word, max_n = _analysis_input(args)
    verdict = wse_verdict(word, max_n)
    if args.format == "json":
        _print_json(verdict.to_json())
    else:
        for i, sub in verdict.per_erasure.items():
            if sub.consistent:
                print(f"erasure {i}: consistent up to n = {sub.coverage}")
            else:
                print(f"erasure {i}: refuted, {sub.witness}")
        print("Consistent" if verdict.consistent else f"Refuted: {verdict.witness}")
    return 0 if verdict.consistent else 1


def _cmd_morphism_apply(args):
    f = parse_morphism_spec(args.spec)
    return _emit_word(args, f(_read_word(args)))


def _cmd_morphism_compose(args):
    outer = parse_morphism_spec(args.spec)
    inner = parse_morphism_spec(getattr(args, "with"))
    text = format_morphism(compose(outer, inner))
    if args.format == "json":
        _print_json({"morphism": text})
    else:
        print(text)
    return 0


def _cmd_morphism_matrix(args):
    m = incidence(parse_morphism_spec(args.spec))
    if args.format == "json":
        _print_json(
            {
                "rows": m.to_lists(),
                "row_letters": m.row_letters,
                "col_letters": m.col_letters,
            }
        )
    elif args.format == "csv":
        _print_csv(list(m.col_letters), m.to_lists())
    else:
        for row in m.rows:
            print(" ".join(str(x) for x in row))
    return 0


def _cmd_morphism_det(args):
    det = determinant(incidence(parse_morphism_spec(args.spec)))
    if args.format == "json":
        _print_json({"det": det})
    else:
        print(det)
    return 0


def _cmd_morphism_classify(args):
    c = classify_letters(parse_morphism_spec(args.spec))
    parts = {
        "nilpotent": sorted(c.nilpotent),
        "permuting": sorted(c.permuting),
        "core": sorted(c.permuting_core),
        "expansive": sorted(c.expansive),
    }
    if args.format == "json":
        _print_json(parts)
    else:
        for name, letters in parts.items():
            print(f"{name}: {''.join(letters) or '-'}")
    return 0


def _cmd_st_decompose(args):
    outcome = st_membership(parse_morphism_spec(args.spec))
    if isinstance(outcome, StRejection):
        if args.format == "json":
            _print_json(outcome.to_json())
        else:
            print(f"Rejected: {outcome.reason} ({outcome.detail})")
        return 1
    if args.format == "json":
        _print_json(outcome.to_json())
    else:
        print(f"factors: {','.join(outcome.factors) or 'id'}")
        print(f"degree: {outcome.degree}")
    return 0


def _cmd_mse_check(args):
    verdict = mse_membership(parse_morphism_spec(args.spec))
    if args.format == "json":
        _print_json(verdict.to_json())
    elif verdict.kind == "permutation":
        print("Permutation")
    elif verdict.kind == "erasing-member":
        print(f"ErasingMember (erases {verdict.erased})")
        for j, cert in verdict.certificates.items():
            print(f"erasure {j}: {','.join(cert.factors) or 'id'}")
    else:
        print(f"Rejected: {verdict.reason} ({verdict.witness})")
    return 0 if verdict.accepted else 1


def _cmd_mse_prime(args):
    f = parse_morphism_spec(args.spec)
    try:
        verdict = primality(f)
    except ValueError as exc:
        if args.format == "json":
            _print_json({"verdict": "rejected", "reason": str(exc)})
        else:
            print(f"Rejected: {exc}")
        return 1
    if args.format == "json":
        _print_json(verdict.to_json())
    else:
        label = {
            "prime-certified": "PrimeCertified",
            "composite-certified": "CompositeCertified",
            "unknown": "Unknown",
        }[verdict.kind]
        print(f"{label}: {verdict.note}" if verdict.note else label)
        if verdict.g_factor is not None:
            print(f"g: {format_morphism(verdict.g_factor)}")
            print(f"h: {format_morphism(verdict.h_factor)}")
    return 0


def _cmd_mse_psi(args):
    family = psi(args.n)
    if args.format == "json":
        _print_json(
            {
                "n": family.n,
                "psi": format_morphism(family.psi),
                "f": format_morphism(family.f),
                "g": format_morphism(family.g),
                "h": format_morphism(family.h),
            }
        )
    else:
        print(format_morphism(family.psi))
    return 0


def _parse_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated expressions, got {text!r}")
    return tuple(parse_number(p) for p in parts)


def _billiard_config(args):
    return BilliardConfig(d=_parse_triple(args.d), rho=_parse_triple(args.rho))


def _cmd_billiard_code(args):
    length = _generated_length(args)
    config = _billiard_config(args)
    if args.format == "text":
        print(billiard_word(config).prefix(length))
        return 0
    # The log is written event by event, so memory stays flat in --length.
    log = (e.to_json() for e in islice(event_stream(config), length))
    if args.format == "json":
        # The bytes _print_json would print for the whole list.
        encode = json.JSONEncoder(sort_keys=True).encode
        sys.stdout.write("[")
        for i, e in enumerate(log):
            sys.stdout.write((", " if i else "") + encode(e))
        print("]")
    else:
        _print_csv(
            ["t", "omega"],
            ([e["t"], "".join(str(i) for i in e["omega"])] for e in log),
        )
    return 0


def _cmd_billiard_classify(args):
    kind = classify(_billiard_config(args))
    if args.format == "json":
        _print_json({"class": kind})
    else:
        print(kind)
    return 0


def _add_length(p, generated=True):
    limit = f" (at most {MAX_LENGTH})" if generated else ""
    p.add_argument("--length", type=int, default=DEFAULT_LENGTH, help="prefix length" + limit)


@lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="wse",
        description="Sturmian words, erasure-aware ternary morphisms, "
        "and exact billiard codings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="generate and transform words")
    word_sub = word.add_subparsers(dest="subcommand", required=True)

    p = word_sub.add_parser("fib", help="prefix of the Fibonacci word")
    _add_length(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_word_fib)

    p = word_sub.add_parser("mechanical", help="mechanical word for slope/intercept")
    p.add_argument("--alpha", required=True, help="slope, e.g. '(3-sqrt(5))/2'")
    p.add_argument("--rho", default="0", help="intercept (default 0)")
    _add_length(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_word_mechanical)

    p = word_sub.add_parser("fixed-point", help="fixed point of a morphism")
    p.add_argument("--spec", required=True, help="morphism, e.g. '0=01,1=0'")
    p.add_argument("--seed", default="0", help="starting letter (default 0)")
    _add_length(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_word_fixed_point)

    p = word_sub.add_parser("erase", help="erase one letter from a word")
    p.add_argument("--letter", required=True, choices=list("012"))
    _add_word_input(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_word_erase)

    analyze = sub.add_parser("analyze", help="analyze a finite word")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)
    for name, handler in (
        ("complexity", _cmd_analyze_complexity),
        ("balance", _cmd_analyze_balance),
        ("sturmian", _cmd_analyze_sturmian),
        ("wse", _cmd_analyze_wse),
    ):
        p = analyze_sub.add_parser(name)
        _add_word_input(p)
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
        _add_length(p, generated=False)
        _add_format(p)
        p.set_defaults(handler=handler)

    morphism = sub.add_parser("morphism", help="operate on morphisms")
    morphism_sub = morphism.add_subparsers(dest="subcommand", required=True)

    p = morphism_sub.add_parser("apply", help="apply a morphism to a word")
    p.add_argument("--spec", required=True)
    _add_word_input(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_morphism_apply)

    p = morphism_sub.add_parser("compose", help="compose --spec after --with")
    p.add_argument("--spec", required=True, help="outer morphism")
    p.add_argument("--with", required=True, help="inner morphism")
    _add_format(p)
    p.set_defaults(handler=_cmd_morphism_compose)

    for name, handler in (
        ("matrix", _cmd_morphism_matrix),
        ("det", _cmd_morphism_det),
        ("classify", _cmd_morphism_classify),
    ):
        p = morphism_sub.add_parser(name)
        p.add_argument("--spec", required=True)
        _add_format(p)
        p.set_defaults(handler=handler)

    st = sub.add_parser("st", help="Sturmian morphism monoid")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    p = st_sub.add_parser("decompose", help="generator certificate or rejection")
    p.add_argument("--spec", required=True, help="two-letter morphism")
    _add_format(p)
    p.set_defaults(handler=_cmd_st_decompose)

    mse = sub.add_parser("mse", help="erasure-aware ternary morphisms")
    mse_sub = mse.add_subparsers(dest="subcommand", required=True)

    p = mse_sub.add_parser("check", help="membership with certificates")
    p.add_argument("--spec", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_mse_check)

    p = mse_sub.add_parser("prime", help="prime/composite certificates")
    p.add_argument("--spec", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_mse_prime)

    p = mse_sub.add_parser("psi", help="n-th member of the prime family")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_mse_psi)

    billiard = sub.add_parser("billiard", help="cubic billiard codings")
    billiard_sub = billiard.add_subparsers(dest="subcommand", required=True)

    p = billiard_sub.add_parser("code", help="coding word or event log")
    p.add_argument("--d", required=True, help="direction, three expressions")
    p.add_argument("--rho", required=True, help="starting point, three expressions")
    _add_length(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_billiard_code)

    p = billiard_sub.add_parser("classify", help="trajectory type from the direction")
    p.add_argument("--d", required=True)
    p.add_argument("--rho", default="0,0,0")
    _add_format(p)
    p.set_defaults(handler=_cmd_billiard_classify)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, BoundedOutputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())
