"""Sturmian words, erasure-aware ternary morphisms, and exact billiard codings.

Every public name is loaded on first use (PEP 562), so importing the package
loads none of its modules, and a program pays only for the modules it uses.
"""

__version__ = "0.1.0"

# The public API: each module and the names the package exports from it.
# Each module's __all__ is its entry here, so every public name is listed once.
_EXPORTS = {
    "billiard": (
        "BilliardConfig", "CrossingEvent", "billiard_word", "classify", "event_stream",
        "mechanical_stream",
    ),
    "exactnum": ("SqrtBasisNumber", "parse_number", "rational", "sqrt"),
    "monoid": ("StCertificate", "StRejection", "recompose", "st_membership"),
    "morphisms": (
        "IncidenceMatrix", "LetterClassification", "Morphism", "apply", "classify_letters",
        "compose", "determinant", "format_morphism", "incidence", "is_unit", "parse_morphism",
    ),
    "mse": (
        "MSEVerdict", "PrimalityVerdict", "PsiFamily", "intercalate", "mse_membership",
        "primality", "psi",
    ),
    "words": (
        "BalanceProfile", "BoundedOutputError", "ComplexityProfile", "SturmianVerdict",
        "WordStream", "WSEVerdict", "apply_stream", "balance_order", "complexity", "erase",
        "fibonacci_stream", "fixed_point_stream", "literal_stream", "sturmian_verdict",
        "wse_verdict",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    # Cached, so that later reads are plain attribute lookups.
    globals()[name] = value
    return value
