"""Algebraic laws of the order/compatibility structure and scan/periodicity
invariants, checked exhaustively on small spaces and by randomized search on
larger ones."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwpowers import (
    SearchQuery,
    factor,
    format_word,
    is_compatible,
    is_contained_in,
    is_power,
    is_strong_periodic,
    join,
    parse_word,
    power_occurrences,
    search_max_powers,
    strong_periods,
    verify_theorem_sq_bound,
)
from helpers import (
    check_canonicalize_laws,
    check_containment_laws,
    check_extension_monotonicity,
    check_join_laws,
    check_permutation_invariance,
    class_occurrences,
    occurrence_scan_by_roots,
    to_word,
)


def code_arrays(max_len=8, k=3):
    return st.lists(
        st.integers(min_value=0, max_value=k), min_size=0, max_size=max_len
    ).map(lambda codes: to_word(tuple(codes), k))


words = code_arrays()
nonempty_words = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=8
).map(lambda codes: to_word(tuple(codes), 3))


class TestExhaustiveLaws:
    """The module-bound law sweeps; each checker returns a violation count."""

    def test_containment_partial_order(self):
        assert check_containment_laws(4, 2) == 0

    def test_join_least_upper_bound(self):
        assert check_join_laws(4, 2) == 0

    def test_letter_permutation_invariance(self):
        assert check_permutation_invariance(5, 3) == 0

    def test_extension_monotonicity(self):
        assert check_extension_monotonicity(5, 2) == 0

    def test_canonicalize_laws(self):
        assert check_canonicalize_laws(5, 3) == 0


class TestRandomizedLaws:
    @given(words)
    def test_round_trip(self, w):
        assert parse_word(format_word(w), w.alphabet) == w

    @given(words)
    def test_containment_reflexive(self, w):
        assert is_contained_in(w, w)

    @given(words, words)
    def test_compatibility_symmetric(self, v, w):
        if len(v) != len(w):
            assert not is_compatible(v, w)
        else:
            assert is_compatible(v, w) == is_compatible(w, v)

    @given(words, words)
    def test_join_is_upper_bound(self, v, w):
        if len(v) == len(w) and is_compatible(v, w):
            u = join(v, w)
            assert is_contained_in(v, u)
            assert is_contained_in(w, u)

    @given(words)
    def test_hole_erasure_is_contained(self, w):
        """Replacing any symbol with a hole gives a word contained in w."""
        for i in range(len(w)):
            codes = list(w.codes)
            codes[i] = 0
            assert is_contained_in(to_word(tuple(codes), w.alphabet.size), w)

    @given(nonempty_words, st.integers(min_value=1, max_value=8))
    def test_periods_of_factors(self, w, p):
        """A strong period of w is a strong period of every prefix."""
        if p <= len(w) and is_strong_periodic(w, p):
            for j in range(1, len(w) + 1):
                assert is_strong_periodic(factor(w, 1, j), p)

    @given(nonempty_words)
    def test_length_is_always_a_strong_period(self, w):
        assert len(w) in strong_periods(w)

    @given(nonempty_words, st.integers(min_value=2, max_value=4))
    def test_occurrences_are_powers(self, w, r):
        for o in power_occurrences(w, r):
            assert o.exponent == r
            assert o.length == r * o.root_length
            assert is_power(factor(w, o.start, o.start + o.length - 1), r)

    @given(nonempty_words, st.integers(min_value=2, max_value=4))
    def test_more_defined_means_fewer_occurrences(self, w, r):
        """Filling a hole can only remove power occurrences."""
        holes = w.hole_positions()
        if not holes:
            return
        base = set()
        for o in power_occurrences(w, r):
            base.add((o.start, o.length))
        codes = list(w.codes)
        codes[holes[0] - 1] = 1
        filled = to_word(tuple(codes), w.alphabet.size)
        for o in power_occurrences(filled, r):
            assert (o.start, o.length) in base

    @settings(max_examples=50)
    @given(nonempty_words, st.integers(min_value=2, max_value=3))
    def test_erasure_preserves_powers(self, w, r):
        """If w is an r-th power, erasing any position leaves one."""
        if is_power(w, r):
            for i in range(len(w)):
                codes = list(w.codes)
                codes[i] = 0
                assert is_power(to_word(tuple(codes), w.alphabet.size), r)


class TestStrongPeriodicityLaws:
    @given(nonempty_words)
    def test_matches_defining_quantifier(self, w):
        n = len(w)
        expected = [
            p
            for p in range(1, n + 1)
            if all(
                len({int(c) for c in w.codes[cls::p] if int(c) != 0}) <= 1
                for cls in range(p)
            )
        ]
        assert strong_periods(w) == expected

    @given(nonempty_words)
    def test_closed_under_multiples(self, w):
        """Residue classes mod mp refine classes mod p, so every multiple of
        a strong period is one too."""
        n = len(w)
        periods = set(strong_periods(w))
        for p in periods:
            for m in range(2 * p, n + 1, p):
                assert m in periods

    def test_divisor_of_period_can_fail(self):
        periods = strong_periods(parse_word("ab"))
        assert 2 in periods
        assert 1 not in periods


class TestSearchAgreesWithTheoremSq:
    """The square search capped at one start position and the theorem-sq
    verifier answer the same question: the most squares a word with a single
    square start can carry, and the least such word attaining it."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_best_and_first_witness(self, k, n):
        result = search_max_powers(
            SearchQuery(exponent=2, alphabet_size=k, max_len=n, max_start_positions=1)
        )
        report = verify_theorem_sq_bound(k, n)
        assert result.exhaustive and report.passed
        assert result.best_count == report.findings["maxSquares"]
        assert format_word(result.witnesses[0]) == report.findings["maxWitness"]


class TestCrossKernelAgreement:
    """The production scan, in its own output order, equals the
    sorted root-construction oracle word-for-word, on fixed edge inputs and
    a randomized sample, read through the byte view PartialWord.codes
    hands it; and the residue-class oracle on words too long for the
    first."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_scan_variants_agree(self, r):
        from pwpowers import _kernels

        fixed = [
            ((), 1),  # the empty word
            ((1,) * (r - 1), 1),  # shorter than r
            ((0,) * 13, 2),  # all holes
            ((1,) + (0,) * 25 + (2,), 2),  # letters across a long hole run
            ((1,) + (0,) * 25 + (2,) + (0,) * 12, 2),  # (0, 39) is no cube
            ((1,) + (0,) * 25 + (1,) + (0,) * 7 + (2,), 2),
            ((0, 0, 1) + (0,) * 20 + (2, 0, 1) + (0,) * 11 + (1, 0, 3), 3),
        ]
        samples = [(bytes(codes), k) for codes, k in fixed]
        rng = np.random.default_rng(20260815 + r)
        for _ in range(300):
            n = int(rng.integers(0, 41))
            k = int(rng.integers(1, 4))
            samples.append((rng.integers(0, k + 1, size=n).astype(np.uint8).tobytes(), k))
        for codes, k in samples:
            expected = sorted(occurrence_scan_by_roots(memoryview(codes), k, r))
            got = list(zip(*_kernels.occurrence_scan(memoryview(codes), r)))
            assert got == expected, list(codes)

    def test_scan_matches_class_oracle_on_long_words(self):
        # the residue-class oracle reaches the lengths the root oracle
        # cannot: seeded words up to 200 symbols at r = 2..10, plus edge
        # inputs, among them words where every window is a power
        from pwpowers import _kernels

        samples = [
            ((), 2),  # the empty word
            ((1, 2), 3),  # shorter than r
            ((0,) * 60, 2),  # all holes
            ((1,) * 45, 3),  # one letter repeated
            ((1,) * 30 + (0,) * 30, 2),  # every window is a power
            ((1, 0, 2), 3),  # a.b: its letters are 2p apart, with a hole between
            ((1, 0, 0, 0, 2, 0), 3),  # the same for p = 2
            ((0, 1, 2), 3),  # .ab: the differing pair ends the window
        ]
        rng = np.random.default_rng(20261019)
        for n in range(0, 201, 5):
            k = int(rng.integers(1, 5))
            r = int(rng.integers(2, 11))
            holes = rng.random(n) < 0.4
            codes = np.where(holes, 0, rng.integers(1, k + 1, size=n))
            samples.append((tuple(int(c) for c in codes), r))
        for codes, r in samples:
            got = list(zip(*_kernels.occurrence_scan(memoryview(bytes(codes)), r)))
            assert got == class_occurrences(codes, r), (codes, r)


def batch_rows(words, r):
    """occurrence_keys on one batch, read back word by word as 0-indexed
    (start, length) rows, in input order, after checking its layout, its key
    order and its start bits."""
    from pwpowers import _kernels

    order, shift, keys, starts = _kernels.occurrence_keys(words, r)
    # longest first, ties in input order
    assert order == sorted(range(len(words)), key=lambda i: (-len(words[i]), i))
    assert keys == sorted(keys)
    rows = [None] * len(words)
    begin = 0
    for i in order:
        end = begin + len(words[i])
        rows[i] = [((key >> shift) - begin, key % (1 << shift))
                   for key in keys if begin <= key >> shift < end]
        assert {x - begin for x in range(begin, end) if starts >> x & 1} == {
            s for s, _ in rows[i]}
        begin = end
    assert sum(map(len, rows)) == len(keys)
    assert starts >> begin == 0
    return rows


@st.composite
def scan_batches(draw):
    # 0-12 words of length 0-60 over alphabets of 1-26 letters (so 0 to 5
    # bit planes), each with its own hole share, all holes included, and an
    # exponent 2-6; some words repeat an earlier one
    r = draw(st.integers(2, 6))
    rnd = draw(st.randoms(use_true_random=False))
    words = []
    for _ in range(draw(st.integers(0, 12))):
        if words and draw(st.integers(0, 5)) == 0:
            words.append(draw(st.sampled_from(words)))
            continue
        k = draw(st.integers(1, 26))
        letters = draw(st.lists(st.integers(1, k), min_size=1, max_size=3))
        holes = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
        n = draw(st.one_of(st.integers(0, r), st.integers(0, 60)))
        words.append(bytes(0 if rnd.random() < holes else rnd.choice(letters)
                           for _ in range(n)))
    return words, r


class TestBatchScan:
    """The batch scan, word by word, against the residue-class oracle: each
    word's rows from one scan of the batch are the rows of its windows that
    are r-th powers, whatever else is in the batch."""

    @settings(max_examples=200, deadline=None)
    @given(scan_batches())
    def test_matches_class_oracle(self, batch):
        words, r = batch
        assert batch_rows(words, r) == [class_occurrences(w, r) for w in words]

    @pytest.mark.parametrize("r", [2, 3, 4, 6])
    def test_long_words_leave_at_their_own_p(self, r):
        # long words of different lengths next to short ones, each leaving
        # the ints when r*p passes its length: a whole r-th power (up to
        # holes) of length r*q, found at the last p it is scanned for, just
        # after a word one shorter has left; and at its side the same word
        # with a last letter that breaks the whole power, on top of the
        # layout at p = q, so that nothing past its last position may be cut
        rng = random.Random(2900 + r)
        q = 520 // r
        root = [rng.randint(1, 3) for _ in range(q)]
        whole = [0 if rng.random() < 0.6 else c for c in root * r]
        broken = whole[:q - 1] + [root[q - 1]] + whole[q:-1] + [root[q - 1] % 3 + 1]
        words = [
            bytes(whole),
            bytes(0 if rng.random() < 0.5 else rng.randint(1, 2) for _ in range(610)),
            bytes(whole[:-1]),
            bytes(broken),
            bytes(whole[:500]),
            bytes(rng.randint(1, 26) for _ in range(30)),
            bytes(r - 1),
            b"",
        ]
        rows = batch_rows(words, r)
        assert (0, q * r) in rows[0]
        assert (0, q * r) not in rows[3]
        assert rows == [class_occurrences(w, r) for w in words]

    def test_one_word_scan_is_a_batch_of_one(self):
        from pwpowers import _kernels

        rng = random.Random(29)
        for n in (0, 1, 8, 40, 200):
            codes = bytes(0 if rng.random() < 0.3 else rng.randint(1, 3) for _ in range(n))
            for r in (2, 3, 5):
                [rows] = batch_rows([codes], r)
                assert list(zip(*_kernels.occurrence_scan(memoryview(codes), r))) == rows
