"""Core word type: parsing, factors, containment, compatibility, join,
strong periodicity."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwpowers import (
    Alphabet,
    IncompatibleError,
    InvalidCharacterError,
    LetterOutsideAlphabetError,
    OutOfRangeError,
    PartialWord,
    PartialWordError,
    empty_word,
    factor,
    format_word,
    is_compatible,
    is_contained_in,
    is_strong_periodic,
    join,
    parse_word,
    strong_periods,
)
from helpers import all_code_tuples, brute_strong_periods, parse_word_by_chars, to_word, word


class TestAlphabet:
    def test_size_bounds(self):
        assert Alphabet(1).letters() == "a"
        assert Alphabet(26).letters().endswith("z")
        for bad in (0, 27, -1):
            with pytest.raises(ValueError):
                Alphabet(bad)

    def test_letter_char(self):
        k3 = Alphabet(3)
        assert [k3.letter_char(c) for c in (1, 2, 3)] == ["a", "b", "c"]
        with pytest.raises(ValueError):
            k3.letter_char(4)


class TestParseFormat:
    def test_positions(self):
        w = word("a.bac.acb")
        assert len(w) == 9
        assert w.alphabet.size == 3
        assert w.hole_positions() == (2, 6)
        assert w.defined_positions() == (1, 3, 4, 5, 7, 8, 9)
        assert not w.is_full
        assert word("abc").is_full

    def test_lozenge_equals_dot(self):
        assert parse_word("a◊b") == parse_word("a.b")

    def test_round_trip(self):
        for text in ["", ".", "abc", "a.bac.acb", ".aba"]:
            w = parse_word(text, Alphabet(3))
            assert format_word(w) == text
            assert parse_word(format_word(w), w.alphabet) == w

    def test_empty(self):
        w = parse_word("")
        assert len(w) == 0
        assert w == empty_word()
        assert w.hole_positions() == ()

    def test_inferred_alphabet(self):
        assert parse_word("aca").alphabet.size == 3
        assert parse_word("...").alphabet.size == 1

    def test_explicit_alphabet_kept(self):
        assert parse_word("a", Alphabet(4)).alphabet.size == 4

    def test_invalid_character(self):
        with pytest.raises(InvalidCharacterError) as excinfo:
            parse_word("a!b")
        assert excinfo.value.position == 2
        assert excinfo.value.char == "!"
        with pytest.raises(InvalidCharacterError) as excinfo:
            parse_word("aBc")
        assert excinfo.value.position == 2

    def test_letter_outside_alphabet(self):
        with pytest.raises(LetterOutsideAlphabetError) as excinfo:
            parse_word("abz", Alphabet(2))
        assert excinfo.value.position == 3
        assert excinfo.value.char == "z"

    @settings(max_examples=1000, deadline=None)
    @given(
        st.text(st.sampled_from([".", "◊", *string.ascii_lowercase, "A", "1", " ", "é"]),
                max_size=30),
        st.none() | st.integers(1, 26),
    )
    def test_matches_character_loop(self, text, k):
        # the same word, or the same error class and message, as the
        # character-by-character reference; invalid characters and letters
        # outside a small alphabet both occur, in either order
        alphabet = Alphabet(k) if k is not None else None

        def outcome(parse):
            try:
                return parse(text, alphabet)
            except PartialWordError as exc:
                return type(exc), str(exc)

        assert outcome(parse_word) == outcome(parse_word_by_chars)


class TestWordObject:
    def test_hash_and_eq(self):
        seen = {word("a.b"), word("a.b"), word("ab")}
        assert len(seen) == 2
        # same text over a different alphabet is a different value
        assert word("a", 1) != word("a", 2)

    def test_codes_read_only(self):
        w = word(".ab")
        assert list(w.codes) == [0, 1, 2]
        with pytest.raises(TypeError):
            w.codes[0] = 1

    def test_code_validation(self):
        with pytest.raises(ValueError):
            PartialWord([0, 3], Alphabet(2))
        with pytest.raises(ValueError):
            PartialWord([-1], Alphabet(2))
        with pytest.raises(ValueError):
            PartialWord(np.array([1, -1], np.int8), Alphabet(2))

    def test_codes_from_any_int_sequence(self):
        # one code per position whatever the integer type: bytes() of a wide
        # array would copy its raw buffer, several bytes per code
        for codes in ([0, 1, 2], (0, 1, 2), np.array([0, 1, 2], np.int64), b"\x00\x01\x02"):
            w = PartialWord(codes, Alphabet(2))
            assert (w.codes.tolist(), w.codes.shape, str(w)) == ([0, 1, 2], (3,), ".ab")

    def test_repr_and_str(self):
        w = word(".ab")
        assert str(w) == ".ab"
        assert ".ab" in repr(w)


class TestFactor:
    def test_examples(self):
        w = word("a.bac.acb")
        assert factor(w, 1, 3) == word("a.b", 3)
        assert factor(w, 5, 5) == word("c", 3)
        assert factor(w, 1, 9) == w

    def test_out_of_range(self):
        w = word("a.bac.acb")
        for i, j in [(0, 3), (4, 2), (1, 10), (5, 99), (-1, 2)]:
            with pytest.raises(OutOfRangeError):
                factor(w, i, j)


class TestContainment:
    def test_examples(self):
        assert is_contained_in(word("a.b", 3), word("acb", 3))
        assert not is_contained_in(word("acb"), word("a.b", 3))
        assert is_contained_in(word("a.b"), word("a.b"))
        assert is_contained_in(word("a.b", 3), word("abb", 3))  # holes are free
        assert not is_contained_in(word("aab", 3), word("abb", 3))
        assert not is_contained_in(word("a.b", 3), word("a.a", 3))

    def test_length_mismatch(self):
        assert not is_contained_in(word("a"), word("ab"))
        assert not is_contained_in(word("ab"), word("a"))


class TestCompatibility:
    def test_examples(self):
        assert is_compatible(word("a.", 2), word(".b", 2))
        assert not is_compatible(word("ab"), word("ac", 3))
        assert is_compatible(word(".aba"), word("aaba"))
        assert not is_compatible(word("a"), word("ab"))

    def test_not_transitive(self):
        u, v, w = word("a.", 2), word("..", 2), word("b.", 2)
        assert is_compatible(u, v) and is_compatible(v, w)
        assert not is_compatible(u, w)


class TestJoin:
    def test_examples(self):
        assert join(word("a.", 2), word(".b", 2)) == word("ab")
        assert join(word("a.", 2), word("ab", 2)) == word("ab")
        w = word(".aba")
        assert join(w, w) == w

    def test_incompatible(self):
        with pytest.raises(IncompatibleError):
            join(word("ab"), word("ac", 3))


class TestStrongPeriodicity:
    def test_examples(self):
        assert is_strong_periodic(word(".aba"), 2)
        assert strong_periods(word(".aba")) == [2, 3, 4]
        assert strong_periods(word("aaaa")) == [1, 2, 3, 4]
        assert strong_periods(word("abab")) == [2, 4]
        assert not is_strong_periodic(word("aba"), 1)

    def test_hole_bridge(self):
        # positions 1 and 3 share the class mod 1 even though 2 is a hole
        assert not is_strong_periodic(word("a.b"), 1)
        assert strong_periods(word("a.b")) == [3]
        assert brute_strong_periods((1, 0, 2)) == [3]

    def test_period_validation(self):
        for bad in (0, -1, "2"):
            with pytest.raises(ValueError):
                is_strong_periodic(word("ab"), bad)

    def test_empty_word_has_no_periods(self):
        assert strong_periods(empty_word()) == []

    def test_matches_brute_exhaustively(self):
        for codes in all_code_tuples(6, 2):
            w = to_word(codes, 2)
            assert strong_periods(w) == brute_strong_periods(codes), codes

    def test_full_words_match_classical_periods(self):
        # on full words the strong notion coincides with the sliding-window one
        for codes in all_code_tuples(10, 2, holes=False):
            w = to_word(codes, 2)
            n = len(codes)
            classical = [
                p
                for p in range(1, n + 1)
                if all(codes[i] == codes[i + p] for i in range(n - p))
            ]
            assert strong_periods(w) == classical
