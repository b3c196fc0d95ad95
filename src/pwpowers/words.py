"""Partial words over small alphabets: the core value type and its relations.

A partial word is a finite sequence whose positions either carry a letter or
are holes (undefined positions, written ``.`` in ASCII or the lozenge ``◊``).
Symbols are stored as small integer codes: 0 is the hole and 1..k are the
letters ``a``..``z`` in order, so the numeric order of codes matches the
textual order ``◊ < a < b < ...`` used everywhere for enumeration.

Positions are 1-indexed in the public API, matching the usual stringology
convention; the underlying codes are a 0-indexed `bytes` string, one code
per byte, which `PartialWord.codes` exposes as a read-only memoryview.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import (
    IncompatibleError,
    InvalidCharacterError,
    LetterOutsideAlphabetError,
    OutOfRangeError,
)

HOLE_CHAR = "."
HOLE_INPUT_CHARS = frozenset({".", "◊"})  # ASCII dot or lozenge
MAX_ALPHABET = 26
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_CODE_TO_CHAR = bytes.maketrans(bytes(range(MAX_ALPHABET + 1)), (HOLE_CHAR + _LETTERS).encode())
# parse_word's input: every symbol character to the character of its code,
# and the first character that is no symbol
_CHAR_TO_CODE = str.maketrans(
    {**dict.fromkeys(HOLE_INPUT_CHARS, 0), **{c: code for code, c in enumerate(_LETTERS, 1)}}
)
_NOT_SYMBOL = re.compile("[^" + "".join(HOLE_INPUT_CHARS) + "a-z]")


class _Record:
    """Base of the package's immutable value types, a frozen dataclass in
    all but its import cost.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    its ``__init__`` stores them once through ``_set``. Equality and hash
    read the tuple of the fields in ``_key`` (every field unless overridden)
    and hold only between instances of the same class; repr shows every
    field; assignment and deletion raise AttributeError; pickle and deepcopy
    call the constructor again with the fields.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values())
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Record):
    """An ordered alphabet of the first ``size`` lowercase letters."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        if not isinstance(size, int) or not 1 <= size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}, got {size!r}")
        self._set(size)

    def letters(self) -> str:
        return _LETTERS[: self.size]

    def letter_char(self, code: int) -> str:
        """The character for letter code 1..size."""
        if not 1 <= code <= self.size:
            raise ValueError(f"letter code {code} outside 1..{self.size}")
        return _LETTERS[code - 1]


class PartialWord:
    """An immutable partial word: a code string plus its alphabet.

    Equality and hashing consider both the symbols and the alphabet size, so
    the same text over different alphabets gives distinct values (they have
    different root counts, for instance).
    """

    __slots__ = ("_codes", "_alphabet")

    def __init__(self, codes: Iterable[int], alphabet: Alphabet):
        # anything but bytes goes through list(): bytes() of an array would
        # copy its raw buffer, several bytes per code for wide integer types
        if not isinstance(codes, bytes):
            codes = list(codes)
        if codes and (min(codes) < 0 or max(codes) > alphabet.size):
            raise ValueError("symbol code outside the alphabet's range")
        self._codes = bytes(codes)
        self._alphabet = alphabet

    @property
    def codes(self) -> memoryview:
        """Read-only view of the codes, one int per position; 0 is the
        hole, 1..k are letters."""
        return memoryview(self._codes)

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def is_full(self) -> bool:
        """True when the word has no holes."""
        return 0 not in self._codes

    def defined_positions(self) -> tuple[int, ...]:
        """1-indexed positions carrying a letter."""
        return tuple(i for i, c in enumerate(self._codes, start=1) if c)

    def hole_positions(self) -> tuple[int, ...]:
        """1-indexed undefined positions."""
        return tuple(i for i, c in enumerate(self._codes, start=1) if not c)

    def __len__(self) -> int:
        return len(self._codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialWord):
            return NotImplemented
        return self._alphabet == other._alphabet and self._codes == other._codes

    def __hash__(self) -> int:
        return hash((self._alphabet.size, self._codes))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"PartialWord({format_word(self)!r}, k={self._alphabet.size})"


def parse_word(text: str, alphabet: Alphabet | None = None) -> PartialWord:
    """Parse ASCII/lozenge text into a partial word.

    Holes may be written ``.`` or ``◊``. When ``alphabet`` is omitted it is
    inferred as the largest letter index present (size 1 for words without
    letters, including the empty word). Of an invalid character and a letter
    outside ``alphabet``, the one at the earlier position is reported.
    """
    bad = _NOT_SYMBOL.search(text)
    symbols = text if bad is None else text[: bad.start()]
    codes = symbols.translate(_CHAR_TO_CODE).encode("latin-1")
    top = max(codes, default=0)
    if alphabet is not None and top > alphabet.size:
        position = next(i for i, c in enumerate(codes, start=1) if c > alphabet.size)
        raise LetterOutsideAlphabetError(position, text[position - 1], alphabet.size)
    if bad is not None:
        raise InvalidCharacterError(bad.start() + 1, bad.group())
    return PartialWord(codes, alphabet if alphabet is not None else Alphabet(max(top, 1)))


def format_word(w: PartialWord) -> str:
    """Canonical ASCII text: letters a..z, holes as '.'."""
    return w._codes.translate(_CODE_TO_CHAR).decode("ascii")


def empty_word(alphabet: Alphabet | None = None) -> PartialWord:
    return PartialWord([], alphabet if alphabet is not None else Alphabet(1))


def factor(w: PartialWord, i: int, j: int) -> PartialWord:
    """The factor w[i..j], 1-indexed and inclusive; requires 1 <= i <= j <= |w|."""
    n = len(w)
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= j <= n):
        raise OutOfRangeError(f"factor bounds ({i},{j}) outside 1..{n}")
    return PartialWord(w._codes[i - 1 : j], w.alphabet)


def is_contained_in(v: PartialWord, w: PartialWord) -> bool:
    """True when w extends v: every defined position of v is defined in w
    with the same letter. Words of different length are never related."""
    if len(v) != len(w):
        return False
    return all(a == 0 or a == b for a, b in zip(v._codes, w._codes))


def is_compatible(u: PartialWord, v: PartialWord) -> bool:
    """True when u and v agree wherever both are defined (same length only)."""
    if len(u) != len(v):
        return False
    return all(a == 0 or b == 0 or a == b for a, b in zip(u._codes, v._codes))


def join(u: PartialWord, v: PartialWord) -> PartialWord:
    """Least upper bound of two compatible words: defined wherever either is."""
    if not is_compatible(u, v):
        raise IncompatibleError(f"words {format_word(u)!r} and {format_word(v)!r} are not compatible")
    codes = bytes(a or b for a, b in zip(u._codes, v._codes))
    alphabet = u.alphabet if u.alphabet.size >= v.alphabet.size else v.alphabet
    return PartialWord(codes, alphabet)


def _require_positive(name: str, value) -> None:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def is_strong_periodic(w: PartialWord, p: int) -> bool:
    """True when all defined positions in each residue class mod p carry the
    same letter (positions i, j with i ≡ j mod p, 1-indexed)."""
    _require_positive("period", p)
    codes = w._codes
    for c in range(min(p, len(codes))):
        if len(set(codes[c::p]).difference((0,))) > 1:
            return False
    return True


def strong_periods(w: PartialWord) -> list[int]:
    """All strong periods 1..|w| in increasing order ([] for the empty word)."""
    n = len(w)
    return [p for p in range(1, n + 1) if is_strong_periodic(w, p)]
