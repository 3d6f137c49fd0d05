"""Binomial coefficients of words and m-binomial equivalence.

Exact counting of scattered subwords, order-m binomial signatures with
incremental and factor-query forms, morphic fixed points and their lifted
integer matrices, detection and avoidance search for m-binomial p-powers,
and a deterministic verification battery over all of it.  Importing it
loads only errors, words and morphisms, not numpy; detect, search and
checks (with numpy) load when one of their names is first read.
"""

from importlib import import_module

from .errors import (
    BinwordsError,
    BudgetExceededError,
    InvalidInputError,
    MorphismParseError,
    NotPrefixCodeError,
    NotProlongableError,
    UnsupportedOrderError,
)
from .words import (
    Alphabet,
    BinomialSignature,
    LENGTH_LIMIT,
    MAX_ALPHABET,
    MAX_ORDER,
    PrefixIndex,
    Word,
    ascent_imbalance,
    equivalent,
    index_words,
    mirror,
    signature,
    subword_count,
    word,
)
from .morphisms import (
    LiftedMatrix,
    Morphism,
    PRESETS,
    Preset,
    compose,
    decode,
    fixed_point_prefix,
    identity_morphism,
    is_prefix_code,
    is_prolongable,
    lift_matrix,
    mirror_morphism,
    parse_morphism,
)

# lazily exported name -> its submodule, the first name of each row (PEP 562)
_LAZY = {name: names.split()[0] for names in (
    "detect Occurrence ScanReport find_power is_power_free scan_fixed_point scan_word",
    "search CountTable SearchCertificate count_avoiding longest_avoiding",
    "checks CHECK_NAMES CheckConfig CheckReport aggregate aggregate_exit_code run_all run_check",
) for name in names.split()}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")  # binds the submodule here too
    return globals().setdefault(name, module if name == _LAZY[name] else getattr(module, name))


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BinomialSignature",
    "BinwordsError",
    "BudgetExceededError",
    "CHECK_NAMES",
    "CheckConfig",
    "CheckReport",
    "CountTable",
    "InvalidInputError",
    "LENGTH_LIMIT",
    "LiftedMatrix",
    "MAX_ALPHABET",
    "MAX_ORDER",
    "Morphism",
    "MorphismParseError",
    "NotPrefixCodeError",
    "NotProlongableError",
    "Occurrence",
    "PRESETS",
    "Preset",
    "PrefixIndex",
    "ScanReport",
    "SearchCertificate",
    "UnsupportedOrderError",
    "Word",
    "aggregate",
    "aggregate_exit_code",
    "ascent_imbalance",
    "compose",
    "count_avoiding",
    "decode",
    "equivalent",
    "find_power",
    "fixed_point_prefix",
    "identity_morphism",
    "index_words",
    "is_power_free",
    "is_prefix_code",
    "is_prolongable",
    "lift_matrix",
    "longest_avoiding",
    "mirror",
    "mirror_morphism",
    "parse_morphism",
    "run_all",
    "run_check",
    "scan_fixed_point",
    "scan_word",
    "signature",
    "subword_count",
    "word",
]
