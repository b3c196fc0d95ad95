"""Word families with prescribed power profiles."""

import pytest

from pwpowers import (
    Alphabet,
    AlphabetTooSmallError,
    BadExponentError,
    cube_examples,
    format_word,
    prop2_word,
    prop3_word,
    square_chain,
    start_positions,
    unique_start_position,
)
from helpers import occ_pairs

CHAIN_WORDS = [".", ".a", ".aba", ".abacaba", ".abacabadabacaba"]


class TestSquareChain:
    def test_words(self):
        for k, text in enumerate(CHAIN_WORDS):
            assert format_word(square_chain(k)) == text
            assert len(square_chain(k)) == 2**k

    def test_profiles(self):
        for k in (*range(6), 12):  # k = 12: length 4096
            w = square_chain(k)
            assert w.hole_positions() == (1,)
            assert occ_pairs(w, 2) == [(1, 2**j) for j in range(1, k + 1)]
            if k >= 1:
                assert unique_start_position(w, 2) == 1

    def test_no_interior_square_start(self):
        for k in range(1, 6):
            assert start_positions(square_chain(k), 2) == (1,)

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmallError):
            square_chain(3, Alphabet(2))
        with pytest.raises(AlphabetTooSmallError):
            square_chain(27)
        assert square_chain(3, Alphabet(5)).alphabet.size == 5

    def test_index_validation(self):
        with pytest.raises(ValueError):
            square_chain(-1)


class TestProp2:
    def test_shape(self):
        assert format_word(prop2_word(2)) == ".aba"
        assert format_word(prop2_word(3)) == "..aba."
        assert format_word(prop2_word(4)) == "...aba.."
        for r in range(2, 11):
            assert len(prop2_word(r)) == 2 * r

    def test_profiles(self):
        for r in range(2, 11):
            w = prop2_word(r)
            assert occ_pairs(w, r) == [(1, r), (1, 2 * r)]
            assert unique_start_position(w, r) == 1

    def test_bad_exponent(self):
        for bad in (1, 0, -3):
            with pytest.raises(BadExponentError):
                prop2_word(bad)


class TestProp3:
    def test_shape(self):
        assert format_word(prop3_word(3)) == "..aba.baa"
        assert format_word(prop3_word(9)) == "........aba.......baa......"
        for r in (3, 9, 15):
            assert len(prop3_word(r)) == 3 * r

    def test_profiles(self):
        for r in (3, 9, 15):
            w = prop3_word(r)
            assert occ_pairs(w, r) == [(1, r), (1, 2 * r), (1, 3 * r)]
            assert unique_start_position(w, r) == 1

    def test_exponent_hypothesis(self):
        for bad in (2, 4, 5, 6, 12):  # not odd multiples of 3
            with pytest.raises(BadExponentError):
                prop3_word(bad)

    def test_unchecked_escape(self):
        w = prop3_word(6, unchecked=True)
        assert len(w) == 18
        assert format_word(w) == ".....aba....baa..."
        with pytest.raises(BadExponentError):
            prop3_word(2, unchecked=True)  # formula needs r >= 3


class TestCubeExamples:
    def test_words(self):
        words = cube_examples()
        assert [format_word(w) for w in words] == ["..aba.baa", "..aba.ba."]
        assert words[0] == prop3_word(3)

    def test_profiles(self):
        for w in cube_examples():
            assert occ_pairs(w, 3) == [(1, 3), (1, 6), (1, 9)]
            assert unique_start_position(w, 3) == 1
