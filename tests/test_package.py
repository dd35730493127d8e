"""The package's lazy exports, the import graph of the `wse` front end, and
the record classes against the frozen dataclasses they stand in for."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import sturmian_erasures as pkg
from sturmian_erasures import billiard, monoid, morphisms, mse, parse_morphism, sqrt, words
from sturmian_erasures.records import Record

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_every_export_resolves_to_its_module():
    assert len(pkg.__all__) == 46
    # Each public name is listed once: a module's __all__ is its entry.
    for module, names in pkg._EXPORTS.items():
        assert import_module(f"sturmian_erasures.{module}").__all__ is names, module
    for name in pkg.__all__:
        value = getattr(pkg, name)
        module = sys.modules[value.__module__]
        assert name in module.__all__, name
        assert getattr(module, name) is value
        # Cached, so later reads do not go through the module __getattr__.
        assert vars(pkg)[name] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name


def _modules_after(code):
    """The modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], set(lines[-1].split())


def _library(modules):
    return {m for m in modules if m.startswith("sturmian_erasures.")}


def test_package_import_loads_no_submodule():
    _, modules = _modules_after("import sturmian_erasures")
    assert _library(modules) == set()


def test_exactnum_import_loads_no_ast():
    # parse_number reads its grammar itself: neither importing exactnum, nor
    # parsing, nor a command that parses its numbers loads ast.
    _, modules = _modules_after("import sturmian_erasures.exactnum")
    assert "sturmian_erasures.exactnum" in modules and "ast" not in modules
    out, modules = _modules_after(
        "from sturmian_erasures import parse_number\nprint(parse_number('(3-sqrt(5))/2'))"
    )
    assert out == ["3/2 - 1/2*sqrt(5)"] and "ast" not in modules
    out, modules = _modules_after(
        "from sturmian_erasures.cli import run\n"
        "assert run(['word', 'mechanical', '--alpha', '(3-sqrt(5))/2', '--length', '8']) == 0"
    )
    assert out == ["00100101"] and "ast" not in modules


def test_cli_import_loads_only_cli():
    _, modules = _modules_after("import sturmian_erasures.cli")
    assert _library(modules) == {"sturmian_erasures.cli"}
    assert "dataclasses" not in modules and "inspect" not in modules


def test_morphism_command_loads_only_what_it_runs():
    out, modules = _modules_after(
        "from sturmian_erasures.cli import run\n"
        "assert run(['morphism', 'det', '--spec', '0=01,1=0']) == 0"
    )
    assert out == ["-1"]
    for name in ("words", "billiard", "mse", "exactnum"):
        assert f"sturmian_erasures.{name}" not in modules
    assert "dataclasses" not in modules


def test_mse_command_loads_neither_words_nor_exactnum():
    out, modules = _modules_after(
        "from sturmian_erasures.cli import run\n"
        "assert run(['mse', 'check', '--spec', '0=02,1=10,2=']) == 0"
    )
    assert out[0] == "ErasingMember (erases 2)"
    assert _library(modules) == {
        f"sturmian_erasures.{name}" for name in ("cli", "mse", "monoid", "morphisms", "records")
    }


FIB = parse_morphism("0=01,1=0")
MEMBER = parse_morphism("0=02,1=10,2=")
NO = dataclasses.MISSING

# Each record class: its fields with their defaults, and two sample values
# for every field.  Dict fields make both kinds unhashable alike.
RECORDS = [
    (words.ComplexityProfile, {"max_n": NO, "counts": NO, "prefix_length": NO},
     (2, {1: 2, 2: 3}, 5), (2, {1: 2, 2: 4}, 5)),
    (words.BalanceProfile, {"max_n": NO, "imbalance": NO, "order": NO, "prefix_length": NO},
     (2, {1: 1, 2: 1}, 1, 5), (3, {1: 1}, 1, 5)),
    (words.SturmianVerdict, {"consistent": NO, "witness": None, "coverage": None},
     (True, None, 4), (False, "P(2)=4 > 3", None)),
    (words.WSEVerdict, {"consistent": NO, "per_erasure": NO, "witness": None},
     (True, {}, None), (False, {"0": None}, "erasure 0")),
    (morphisms.IncidenceMatrix, {"rows": NO, "row_letters": NO, "col_letters": NO},
     (((1, 1), (1, 0)), "01", "01"), (((1, 0), (0, 1)), "01", "01")),
    (morphisms.LetterClassification,
     {"nilpotent": NO, "permuting_core": NO, "permuting": NO, "expansive": NO, "witness": NO},
     (frozenset("2"), frozenset("01"), frozenset("01"), frozenset(), {"2": 1}),
     (frozenset(), frozenset(), frozenset(), frozenset("01"), {})),
    (monoid.StCertificate, {"factors": NO}, (("phi", "E"),), ((),)),
    (monoid.StRejection, {"reason": NO, "detail": ""},
     ("erasing", ""), ("determinant", "det=0, members have det +-1")),
    (mse.MSEVerdict,
     {"kind": NO, "erased": None, "certificates": None, "reason": None, "witness": None},
     ("permutation", None, None, None, None), ("rejected", None, None, "length-filter", "w")),
    (mse.PsiFamily, {"n": NO, "psi": NO, "f": NO, "g": NO, "h": NO},
     (1, MEMBER, FIB, FIB, FIB), (2, MEMBER, FIB, MEMBER, FIB)),
    (mse.PrimalityVerdict, {"kind": NO, "note": "", "g_factor": None, "h_factor": None},
     ("unknown", "", None, None), ("composite-certified", "", MEMBER, FIB)),
    (billiard.BilliardConfig, {"d": NO, "rho": NO},
     ((1, sqrt(2), sqrt(3)), (0, Fraction(1, 2), 0)), ((1, 1, 0), (0, 0, 0))),
    (billiard.CrossingEvent, {"t": NO, "omega": NO},
     (sqrt(2) / 2, (1,)), (Fraction(1, 3), (0, 2))),
]


def _reference(cls, fields):
    """A frozen dataclass with the same name, fields, defaults and
    __post_init__."""
    spec = [(name, object) if default is NO else
            (name, object, dataclasses.field(default=default)) for name, default in fields.items()]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the error is part of what must match
        return type(exc).__name__.replace("FrozenInstanceError", "AttributeError"), str(exc)


@pytest.mark.parametrize("cls, fields, a, b", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
def test_record_matches_frozen_dataclass(cls, fields, a, b):
    ref = _reference(cls, fields)
    names = list(fields)
    required = [name for name, default in fields.items() if default is NO]
    for kind in (cls, ref):
        x, y = kind(*a), kind(**dict(zip(names, a)))
        assert x == y and x != kind(*b) and x != a
    # Another class with the same fields and values is never equal.
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(names)})
    assert cls(*a) != twin(*a) and ref(*a) != _reference(cls, fields)(*a)
    for values in (a, b):
        x, r = cls(*values), ref(*values)
        assert repr(x) == repr(r)
        assert _outcome(hash, x) == _outcome(hash, r)
        assert [getattr(x, n) for n in names] == [getattr(r, n) for n in names]
        for name in (*names, "extra"):
            assert _outcome(setattr, x, name, 0) == _outcome(setattr, r, name, 0)
            assert _outcome(delattr, x, name) == _outcome(delattr, r, name)
    # Defaults, and the errors of a call with too few or too many arguments.
    short = a[: len(required)]
    assert repr(cls(*short)) == repr(ref(*short))
    assert _outcome(cls) == _outcome(ref)
    assert _outcome(cls, *a, 0) == _outcome(ref, *a, 0)

