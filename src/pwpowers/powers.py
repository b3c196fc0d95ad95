"""Detection and enumeration of r-th powers inside partial words.

A partial word w is an r-th power when it is contained in x^r for some
nonempty full word x, which happens exactly when r divides |w| >= 1 and w is
strongly (|w|/r)-periodic. An occurrence records a factor of w that is an
r-th power, keyed by its 1-indexed start and its length (a multiple of r).
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional

from . import _kernels
from .errors import NotAPowerError
from .words import PartialWord, _Record, _require_positive, format_word, is_strong_periodic

DEFAULT_ROOT_CAP = 64


def _validate_exponent(r) -> None:
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"exponent must be an integer >= 2, got {r!r}")


def is_power(w: PartialWord, r: int) -> bool:
    """True when w sits inside x^r for some nonempty full word x.

    Empty words are not powers, and lengths not divisible by r cannot be.
    """
    _validate_exponent(r)
    n = len(w)
    if n == 0 or n % r != 0:
        return False
    return is_strong_periodic(w, n // r)


def enumerate_roots(w: PartialWord, r: int, cap: int = DEFAULT_ROOT_CAP):
    """All full words x with w contained in x^r.

    Returns (roots, total): at most `cap` roots in lexicographic order, plus
    the exact total count k^h where h is the number of residue classes of w
    that are entirely holes. Raises NotAPowerError when w is not an r-th
    power.
    """
    _validate_exponent(r)
    _require_positive("cap", cap)
    if not is_power(w, r):
        raise NotAPowerError(f"{format_word(w)!r} is not an {r}-th power")
    k = w.alphabet.size
    p = len(w) // r
    codes = w.codes
    # is_power held, so each residue class carries at most one letter; 0
    # marks a class of holes only
    forced = [max(codes[c::p]) for c in range(p)]
    free_count = forced.count(0)
    total = k**free_count
    choice_sets = [range(1, k + 1) if f == 0 else (f,) for f in forced]
    roots = [
        PartialWord(combo, w.alphabet)
        for combo in itertools.islice(itertools.product(*choice_sets), cap)
    ]
    return roots, total


class PowerOccurrence(NamedTuple):
    """One power occurrence: factor w[start .. start+length-1] is an r-th
    power. Field order gives the canonical (start, length) sort. A tuple,
    so it compares equal to the plain tuple of its fields."""

    start: int
    length: int
    exponent: int
    root_length: int


class PowerProfile(_Record):
    """Everything the analyzer reports about one word and one exponent."""

    __slots__ = ("word", "exponent", "occurrences", "start_positions", "unique_start")

    def __init__(
        self,
        word: PartialWord,
        exponent: int,
        occurrences: tuple[PowerOccurrence, ...],
        start_positions: tuple[int, ...],
        unique_start: Optional[int],
    ):
        self._set(word, exponent, occurrences, start_positions, unique_start)

    def to_json_dict(self) -> dict:
        return {
            "word": format_word(self.word),
            "r": self.exponent,
            "occurrences": [
                {"start": o.start, "length": o.length} for o in self.occurrences
            ],
            "startPositions": list(self.start_positions),
            "uniqueStart": self.unique_start,
        }


def power_occurrences(w: PartialWord, r: int) -> List[PowerOccurrence]:
    """All r-th power occurrences, sorted by (start, length), 1-indexed."""
    _validate_exponent(r)
    starts, lengths = _kernels.occurrence_scan(w.codes, r)
    return [PowerOccurrence(s + 1, L, r, L // r) for s, L in zip(starts, lengths)]


def start_positions(w: PartialWord, r: int) -> tuple[int, ...]:
    """Sorted distinct 1-indexed starts of r-th power occurrences."""
    _validate_exponent(r)
    return tuple(sorted({s + 1 for s in _kernels.occurrence_scan(w.codes, r)[0]}))


def unique_start_position(w: PartialWord, r: int) -> Optional[int]:
    """The single start position when exactly one exists, else None."""
    starts = start_positions(w, r)
    return starts[0] if len(starts) == 1 else None


def distinct_power_factors(w: PartialWord, r: int) -> int:
    """Number of distinct factors (as partial words) among the occurrences."""
    _validate_exponent(r)
    codes = w.codes
    starts, lengths = _kernels.occurrence_scan(codes, r)
    return len({codes[s : s + L].tobytes() for s, L in zip(starts, lengths)})


def power_profile(w: PartialWord, r: int) -> PowerProfile:
    occs = tuple(power_occurrences(w, r))
    starts = tuple(sorted({o.start for o in occs}))
    return PowerProfile(
        word=w,
        exponent=r,
        occurrences=occs,
        start_positions=starts,
        unique_start=starts[0] if len(starts) == 1 else None,
    )
