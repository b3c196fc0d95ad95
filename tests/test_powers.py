"""Power detection, root enumeration, occurrence scanning."""

import pickle

import numpy as np
import pytest

from pwpowers import (
    Alphabet,
    NotAPowerError,
    PowerOccurrence,
    distinct_power_factors,
    enumerate_roots,
    format_word,
    is_power,
    power_occurrences,
    power_profile,
    start_positions,
    unique_start_position,
)
from helpers import (
    all_code_tuples,
    brute_is_power,
    brute_occurrences,
    occ_pairs,
    to_word,
    word,
)


class TestIsPower:
    def test_examples(self):
        assert is_power(word(".a"), 2)
        assert is_power(word("aaaa"), 2)
        assert is_power(word("aaaa"), 4)
        assert not is_power(word("aba"), 2)  # length not divisible
        assert not is_power(word("abab", 2), 4)
        assert is_power(word("..aba.baa"), 3)
        assert is_power(word("a.bac.acb"), 3)

    def test_empty_word_is_not_a_power(self):
        assert not is_power(word(""), 2)

    def test_exponent_validation(self):
        for bad in (1, 0, -2, "2"):
            with pytest.raises(ValueError):
                is_power(word("aa"), bad)

    def test_matches_literal_root_search_exhaustively(self):
        # identical verdicts when every candidate root is tried literally
        for codes in all_code_tuples(9, 2):
            w = to_word(codes, 2)
            for r in (2, 3):
                assert is_power(w, r) == brute_is_power(codes, 2, r), (codes, r)


class TestEnumerateRoots:
    def test_forced_roots(self):
        roots, total = enumerate_roots(word("a.bac.acb"), 3)
        assert [format_word(x) for x in roots] == ["acb"]
        assert total == 1
        roots, total = enumerate_roots(word(".aba"), 2)
        assert [format_word(x) for x in roots] == ["ba"]
        assert total == 1

    def test_free_classes(self):
        roots, total = enumerate_roots(word("..", 2), 2)
        assert [format_word(x) for x in roots] == ["a", "b"]
        assert total == 2
        roots, total = enumerate_roots(word("....", 2), 2)
        assert [format_word(x) for x in roots] == ["aa", "ab", "ba", "bb"]
        assert total == 4

    def test_cap(self):
        roots, total = enumerate_roots(word("....", 2), 2, cap=3)
        assert [format_word(x) for x in roots] == ["aa", "ab", "ba"]
        assert total == 4
        with pytest.raises(ValueError):
            enumerate_roots(word("..", 2), 2, cap=0)

    def test_not_a_power(self):
        with pytest.raises(NotAPowerError):
            enumerate_roots(word("ab"), 2)
        with pytest.raises(NotAPowerError):
            enumerate_roots(word("aaa"), 2)

    def test_roots_are_full_and_reconstruct(self):
        # every enumerated root x really gives w contained in x^r
        for codes in all_code_tuples(6, 2):
            w = to_word(codes, 2)
            for r in (2, 3):
                if not is_power(w, r):
                    continue
                roots, total = enumerate_roots(w, r, cap=64)
                assert len(roots) == total <= 64
                p = len(w) // r
                for x in roots:
                    assert x.is_full and len(x) == p
                    xr = list(x.codes) * r
                    assert all(c == 0 or c == xr[i] for i, c in enumerate(codes))


class TestOccurrences:
    def test_frozen_examples(self):
        assert occ_pairs(word(".aba"), 2) == [(1, 2), (1, 4)]
        assert occ_pairs(word("aaaa"), 2) == [(1, 2), (1, 4), (2, 2), (3, 2)]
        assert occ_pairs(word("..aba.baa"), 3) == [(1, 3), (1, 6), (1, 9)]
        assert occ_pairs(word("..aba.ba."), 3) == [(1, 3), (1, 6), (1, 9)]
        assert occ_pairs(word("a.bac.acb"), 3) == [(1, 9)]
        assert occ_pairs(word("ab"), 2) == []

    def test_occurrence_fields(self):
        occs = power_occurrences(word(".aba"), 2)
        assert occs[0] == PowerOccurrence(start=1, length=2, exponent=2, root_length=1)
        for o in occs:
            assert o.length == o.exponent * o.root_length

    def test_occurrence_is_an_immutable_tuple(self):
        occ = PowerOccurrence(start=2, length=4, exponent=2, root_length=2)
        assert occ == (2, 4, 2, 2)
        assert sorted([occ, PowerOccurrence(2, 2, 2, 1), PowerOccurrence(1, 6, 2, 3)]) == [
            (1, 6, 2, 3), (2, 2, 2, 1), (2, 4, 2, 2)]
        with pytest.raises(AttributeError):
            occ.start = 1

    def test_rows_are_power_occurrences(self):
        # the rows are made by tuple.__new__, not by the class's constructor:
        # each is still a PowerOccurrence, with its fields, equal to the plain
        # tuple of its fields and pickled as one
        occs = power_occurrences(word("aab.aab.ab"), 2)
        assert len(occs) > 3
        for o in occs:
            assert type(o) is PowerOccurrence
            assert (o.start, o.length, o.exponent, o.root_length) == tuple(o)
            assert o == PowerOccurrence(*o) == tuple(o)
            assert o._asdict() == dict(zip(PowerOccurrence._fields, o))
            assert o.length == o.exponent * o.root_length
        restored = pickle.loads(pickle.dumps(occs))
        assert restored == occs == [tuple(o) for o in occs]
        assert all(type(o) is PowerOccurrence for o in restored)
        assert repr(occs[0]) == "PowerOccurrence(start=1, length=2, exponent=2, root_length=1)"

    def test_start_positions(self):
        assert start_positions(word("aaaa"), 2) == (1, 2, 3)
        assert start_positions(word(".abacaba"), 2) == (1,)
        assert start_positions(word("ab"), 2) == ()
        assert unique_start_position(word(".abacaba"), 2) == 1
        assert unique_start_position(word("aaaa"), 2) is None
        assert unique_start_position(word("ab"), 2) is None

    def test_distinct_factors(self):
        assert distinct_power_factors(word(".aba"), 2) == 2
        assert distinct_power_factors(word("aaaa"), 2) == 2  # "aa" and "aaaa"
        assert distinct_power_factors(word("ab"), 2) == 0

    def test_matches_brute_exhaustively(self):
        for codes in all_code_tuples(8, 2):
            w = to_word(codes, 2)
            for r in (2, 3):
                got = [(s - 1, L) for s, L in occ_pairs(w, r)]
                assert got == brute_occurrences(codes, 2, r), (codes, r)

    def test_sorted_by_start_then_length(self):
        for codes in all_code_tuples(7, 2):
            pairs = occ_pairs(to_word(codes, 2), 2)
            assert pairs == sorted(pairs)


class TestProfile:
    def test_json_shape(self):
        profile = power_profile(word(".aba"), 2)
        doc = profile.to_json_dict()
        assert list(doc.keys()) == ["word", "r", "occurrences", "startPositions", "uniqueStart"]
        assert doc["word"] == ".aba"
        assert doc["r"] == 2
        assert doc["occurrences"] == [{"start": 1, "length": 2}, {"start": 1, "length": 4}]
        assert doc["startPositions"] == [1]
        assert doc["uniqueStart"] == 1

    def test_unique_start_null(self):
        doc = power_profile(word("aaaa"), 2).to_json_dict()
        assert doc["uniqueStart"] is None
        assert doc["startPositions"] == [1, 2, 3]
