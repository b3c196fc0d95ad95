"""Powers in partial words: analysis, constructions, verification, search.

Every name in __all__ is importable from the package, but `import pwpowers`
loads no submodule: a name, or a submodule (`pwpowers.search`), is imported
on its first access through the module __getattr__ below (PEP 562) and then
kept as a package attribute. A CLI call thus compiles only the modules its
command runs.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it, in __all__ order
_EXPORTS = {
    "words": (
        "Alphabet",
        "PartialWord",
        "empty_word",
        "factor",
        "format_word",
        "is_compatible",
        "is_contained_in",
        "is_strong_periodic",
        "join",
        "parse_word",
        "strong_periods",
    ),
    "powers": (
        "PowerOccurrence",
        "PowerProfile",
        "distinct_power_factors",
        "enumerate_roots",
        "is_power",
        "power_occurrences",
        "power_profile",
        "start_positions",
        "unique_start_position",
    ),
    "constructions": ("cube_examples", "prop2_word", "prop3_word", "square_chain"),
    "verify": (
        "Counterexample",
        "VerificationReport",
        "verify_construction",
        "verify_corollary_full",
        "verify_fine_wilf",
        "verify_lemma_2k",
        "verify_lemma_short",
        "verify_lemma_h1",
        "verify_theorem_sq_bound",
    ),
    "search": (
        "SearchQuery",
        "SearchResult",
        "TableCell",
        "canonicalize",
        "is_canonical",
        "known_bound",
        "lower_bound_table",
        "search_max_powers",
    ),
    "errors": (
        "PartialWordError",
        "InvalidCharacterError",
        "LetterOutsideAlphabetError",
        "OutOfRangeError",
        "IncompatibleError",
        "NotAPowerError",
        "AlphabetTooSmallError",
        "BadExponentError",
        "ResourceLimitError",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = (*_EXPORTS, "_kernels", "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule on the package; __import__ rather
        # than importlib.import_module, which -X importtime does not report
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
