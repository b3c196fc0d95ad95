"""Bounded exhaustive verifiers: pass verdicts, counterexample machinery,
budgets, determinism."""

import copy
import itertools
import pickle
import random
import tracemalloc

import pytest

from helpers import (
    all_code_tuples,
    brute_occurrences,
    expected_verify_report,
    fine_wilf_reference,
    is_canonical_codes,
    odometer_reference,
)
from pwpowers import (
    Alphabet,
    Counterexample,
    ResourceLimitError,
    SearchQuery,
    SearchResult,
    TableCell,
    VerificationReport,
    _kernels,
    format_word,
    parse_word,
    power_profile,
    strong_periods,
    verify_construction,
    verify_corollary_full,
    verify_fine_wilf,
    verify_lemma_2k,
    verify_lemma_short,
    verify_lemma_h1,
    verify_theorem_sq_bound,
)
from pwpowers import verify as verify_module


class TestFineWilf:
    def test_passes(self):
        report = verify_fine_wilf(2, 10)
        assert report.passed
        assert report.claim == "fine-wilf"
        assert report.parameters == {"k": 2, "maxLen": 10}
        assert report.counterexample is None
        # canonical binary words of lengths 1..10: 2^10 - 1
        assert report.instances_checked == 1023
        assert report.findings["wordsEnumerated"] == 2046

    def test_single_letter(self):
        assert verify_fine_wilf(1, 6).passed

    def test_deterministic(self):
        a = verify_fine_wilf(2, 9)
        b = verify_fine_wilf(2, 9)
        assert a == b  # elapsed_seconds is excluded from equality

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_fine_wilf(2, 10, budget=100)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_fine_wilf(0, 5)
        with pytest.raises(ValueError):
            verify_fine_wilf(2, 0)


class TestCorollaryFull:
    def test_passes(self):
        report = verify_corollary_full(2, 2, 12)
        assert report.passed
        assert report.instances_checked == 4095
        assert verify_corollary_full(3, 2, 9).passed

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_corollary_full(2, 2, 12, budget=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_corollary_full(1, 2, 5)

    def test_unary_counts_hold_no_table(self):
        # one letter gives one full word per length: a stop after 10^6 words
        # must not build anything per length
        tracemalloc.start()
        try:
            result = _kernels.corollary_full_kernel(2, 1, 10**12, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, 10**6, 10**6 + 1, None, 1, (1, 1))
        assert peak < 10**5


class TestLemmaH1:
    def test_passes(self):
        report = verify_lemma_h1(2, 9)
        assert report.passed
        assert report.counterexample is None
        assert report.instances_checked > 0

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_lemma_h1(2, 9, budget=7)


class TestHolePrefixLemmas:
    def test_lemma_2k_passes(self):
        report = verify_lemma_2k(2, 6)
        assert report.passed
        # pairs (u', c): sum over |u| = 1..6 of 2^{|u|-1} * 2
        assert report.instances_checked == 126

    def test_lemma_short_passes(self):
        report = verify_lemma_short(2, 6)
        assert report.passed
        assert report.instances_checked == 126

    def test_alphabet_requirement(self):
        with pytest.raises(ValueError):
            verify_lemma_2k(1, 4)
        with pytest.raises(ValueError):
            verify_lemma_short(1, 4)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_lemma_2k(2, 6, budget=10)
        with pytest.raises(ResourceLimitError):
            verify_lemma_short(2, 6, budget=10)

    def test_larger_alphabet(self):
        assert verify_lemma_2k(3, 4).passed
        assert verify_lemma_short(3, 4).passed


class TestTheoremSq:
    def test_passes_at_default_bound(self):
        report = verify_theorem_sq_bound(2, 9)
        assert report.passed
        assert report.parameters == {"k": 2, "maxLen": 9, "bound": 2}
        assert report.findings["maxSquares"] == 2
        assert report.findings["maxWitness"] == ".aba"

    def test_attains_k_for_k3(self):
        report = verify_theorem_sq_bound(3, 8)
        assert report.passed
        assert report.findings["maxSquares"] == 3
        assert report.findings["maxWitness"] == ".abacaba"

    def test_tightness_probe_fails(self):
        # bound k-1 must be refuted, and the counterexample must replay
        report = verify_theorem_sq_bound(2, 6, bound=1)
        assert report.outcome == "fail"
        cex = report.counterexample
        assert cex is not None
        assert format_word(cex.word) == ".aba"  # least canonical refuter
        profile = power_profile(cex.word, 2)
        assert len(profile.occurrences) == 2 > 1
        assert profile.unique_start == 1
        assert cex.context == {"squares": 2, "bound": 1}

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_theorem_sq_bound(2, 9, budget=3)


# k -> largest max_len of the odometer-reference grid
GRID_LENGTHS = {1: 9, 2: 9, 3: 6}
# k -> largest max_len of the corollary-full grid, on full words
FULL_GRID_LENGTHS = {1: 9, 2: 10, 3: 7}
GRID_BUDGETS = (-3, 0, 1, 3, 7, 50, 5000, 10**8)


def _report_or_error(verifier, *args, **kwargs):
    try:
        doc = verifier(*args, **kwargs).to_json_dict()
    except ResourceLimitError as exc:
        return str(exc)
    del doc["elapsedSeconds"]
    return doc


class TestOdometerReferenceGrid:
    """The verifier kernels against the odometer references: their full
    return tuples (including the counts at a budget stop) and, for
    theorem-sq and lemma-h1, the full reports or budget error texts, on
    pass, fail and budget-exceeded cases."""

    @pytest.mark.parametrize("k", sorted(FULL_GRID_LENGTHS))
    def test_fine_wilf(self, k):
        for n in range(1, FULL_GRID_LENGTHS[k] + 1):
            for budget in GRID_BUDGETS:
                assert _kernels.fine_wilf_kernel(k, n, budget) == (
                    fine_wilf_reference(k, n, budget)
                ), (n, budget)

    @pytest.mark.parametrize("k", sorted(GRID_LENGTHS))
    def test_theorem_sq(self, k):
        for n in range(1, GRID_LENGTHS[k] + 1):
            for bound in (1, 2, 3):
                for budget in GRID_BUDGETS:
                    case = (n, bound, budget)
                    assert _kernels.theorem_sq_kernel(k, n, bound, budget) == (
                        odometer_reference(k, n, budget, bound)
                    ), case
                    assert _report_or_error(
                        verify_theorem_sq_bound, k, n, bound=bound, budget=budget
                    ) == expected_verify_report(k, n, budget, bound), case

    @pytest.mark.parametrize("k", sorted(GRID_LENGTHS))
    def test_lemma_h1(self, k):
        for n in range(1, GRID_LENGTHS[k] + 1):
            for budget in GRID_BUDGETS:
                case = (n, budget)
                assert _kernels.lemma_h1_kernel(k, n, budget) == (
                    odometer_reference(k, n, budget)
                ), case
                assert _report_or_error(
                    verify_lemma_h1, k, n, budget=budget
                ) == expected_verify_report(k, n, budget), case

    @pytest.mark.parametrize("k", sorted(FULL_GRID_LENGTHS))
    def test_corollary_full(self, k):
        for r in (2, 3, 4):
            for n in range(1, FULL_GRID_LENGTHS[k] + 1):
                for budget in GRID_BUDGETS:
                    assert _kernels.corollary_full_kernel(r, k, n, budget) == (
                        odometer_reference(k, n, budget, r=r, full=True)
                    ), (r, n, budget)


def _premise_words(k, max_len, r, full):
    """(codes, powers) for every canonical word of length 1..max_len over
    k letters, and holes unless `full`, whose r-th powers all start at one
    position, in length-then-lex order; with r None, every canonical word
    with powers 0."""
    words = []
    for codes in all_code_tuples(max_len, k, holes=not full):
        if codes and is_canonical_codes(codes):
            if r is None:
                words.append((codes, 0))
            else:
                powers = brute_occurrences(codes, k, r)
                if len({start for start, _ in powers}) == 1:
                    words.append((codes, len(powers)))
    return words


class TestStartBoundedWalk:
    """The depth-first pass behind the four word-space verifiers, word by
    word."""

    @pytest.mark.parametrize("k, max_len", [(1, 10), (2, 8), (3, 7), (4, 5)])
    def test_yields_every_premise_word(self, k, max_len):
        # the pass hands every premise word to violates exactly once, with
        # its power count: each canonical word whose r-th powers all start
        # at one position, over holes and letters and over letters only,
        # and, with no exponent, each canonical full word
        for r, full in [*itertools.product((2, 3), (False, True)), (None, True)]:
            seen = []
            _kernels._decide_start_bounded(
                r, k, int(full), max_len, 10**8,
                lambda codes, powers: seen.append((codes, powers)),
            )
            seen.sort(key=lambda entry: (len(entry[0]), entry[0]))
            assert seen == _premise_words(k, max_len, r, full), (r, full)

    def test_one_append_per_tree_node(self, monkeypatch):
        # one pass: each node of the tree of full words with at most one
        # 5th-power start, up to length 18, is scored once
        append = _kernels._append
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return append(*args)

        monkeypatch.setattr(_kernels, "_append", counting)
        assert _kernels.corollary_full_kernel(5, 2, 18, 10**8)[0] == 0
        assert calls[0] == 210055

    def test_walk_stops_where_the_tree_ends(self, monkeypatch):
        # binary premise words are finitely many, so past the tree's depth a
        # larger max_len must not cost a single append more
        append = _kernels._append
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return append(*args)

        monkeypatch.setattr(_kernels, "_append", counting)
        counts = []
        for n in (100, 200):
            calls[0] = 0
            assert _kernels.theorem_sq_kernel(2, n, 2, 3 ** (n + 1))[0] == 0
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0


class TestInjectedRefutationGrid:
    """The pass against the odometer references with a few seeded premise
    words refuted on top of each claim's own rule, at every grid budget.
    Where the pass meets them out of odometer order, the kernel must still
    return the least one, with best and witness taken only from the words
    before it."""

    @pytest.fixture
    def refuted(self, monkeypatch):
        # the words every verifier kernel refutes besides its own rule's
        refuted = set()
        decide = _kernels._decide_start_bounded
        monkeypatch.setattr(
            _kernels, "_decide_start_bounded",
            lambda r, k, lo, max_len, budget, violates: decide(
                r, k, lo, max_len, budget,
                lambda codes, powers: codes in refuted or violates(codes, powers),
            ),
        )
        return refuted

    @staticmethod
    def _cells(refuted, lengths, k, r, full):
        # each max_len of the grid, with a few seeded premise words refuted
        rng = random.Random(k * 10 + (r or 0))
        for n in range(1, lengths[k] + 1):
            words = [codes for codes, _ in _premise_words(k, n, r, full)]
            refuted.clear()
            refuted.update(rng.sample(words, min(3, len(words))))
            yield n

    @pytest.mark.parametrize("k", sorted(FULL_GRID_LENGTHS))
    def test_fine_wilf(self, k, refuted):
        for n in self._cells(refuted, FULL_GRID_LENGTHS, k, None, True):
            for budget in GRID_BUDGETS:
                assert _kernels.fine_wilf_kernel(k, n, budget) == (
                    fine_wilf_reference(k, n, budget, refuted)
                ), (n, budget, refuted)

    @pytest.mark.parametrize("k", sorted(GRID_LENGTHS))
    def test_theorem_sq(self, k, refuted):
        for n in self._cells(refuted, GRID_LENGTHS, k, 2, False):
            for bound in (1, k):
                for budget in GRID_BUDGETS:
                    assert _kernels.theorem_sq_kernel(k, n, bound, budget) == (
                        odometer_reference(k, n, budget, bound, refuted=refuted)
                    ), (n, bound, budget, refuted)

    @pytest.mark.parametrize("k", sorted(FULL_GRID_LENGTHS))
    def test_corollary_full(self, k, refuted):
        for r in (2, 3, 4):
            for n in self._cells(refuted, FULL_GRID_LENGTHS, k, r, True):
                for budget in GRID_BUDGETS:
                    assert _kernels.corollary_full_kernel(r, k, n, budget) == (
                        odometer_reference(k, n, budget, r=r, full=True, refuted=refuted)
                    ), (r, n, budget, refuted)


def _doc(report):
    doc = report.to_json_dict()
    del doc["elapsedSeconds"]
    return doc


class TestFailureBranches:
    """Every claim here is a theorem, so no real run reaches the failure
    branch; each test makes the kernel or the scan refute one chosen word
    and pins the report the verifier builds from it."""

    def test_fine_wilf(self, monkeypatch):
        # the real walk over full words, refuting `abab` on its periods 2
        # and 4 (odometer position 20, the 13th canonical word)
        refutation = _kernels._fine_wilf_refutation
        monkeypatch.setattr(
            _kernels, "_fine_wilf_refutation",
            lambda codes: (2, 4) if tuple(codes) == (1, 2, 1, 2) else refutation(codes),
        )
        assert _doc(verify_fine_wilf(2, 6)) == {
            "claim": "fine-wilf",
            "parameters": {"k": 2, "maxLen": 6},
            "instancesChecked": 13,
            "outcome": "fail",
            "counterexample": {"word": "abab", "context": {"p": 2, "q": 4, "gcd": 2}},
            "findings": {"wordsEnumerated": 20},
        }

    def test_corollary_full(self, monkeypatch):
        # the real pass over full words, refuting `abba` (odometer
        # position 21, the 14th canonical word)
        decide = _kernels._decide_start_bounded
        monkeypatch.setattr(
            _kernels, "_decide_start_bounded",
            lambda r, k, lo, max_len, budget, violates: decide(
                r, k, lo, max_len, budget, lambda codes, powers: codes == (1, 2, 2, 1)
            ),
        )
        assert _doc(verify_corollary_full(2, 2, 6)) == {
            "claim": "corollary-full",
            "parameters": {"r": 2, "k": 2, "maxLen": 6},
            "instancesChecked": 14,
            "outcome": "fail",
            "counterexample": {
                "word": "abba", "context": {"start": 2, "occurrencesAtStart": 1},
            },
            "findings": {"wordsEnumerated": 21},
        }

    def test_lemma_h1(self, monkeypatch):
        # the real pass, refuting `aa` (odometer position 8, the 6th
        # canonical word)
        decide = _kernels._decide_start_bounded
        monkeypatch.setattr(
            _kernels, "_decide_start_bounded",
            lambda r, k, lo, max_len, budget, violates: decide(
                r, k, lo, max_len, budget, lambda codes, squares: codes == (1, 1)
            ),
        )
        assert _doc(verify_lemma_h1(2, 4)) == {
            "claim": "lemma-h1",
            "parameters": {"k": 2, "maxLen": 4},
            "instancesChecked": 6,
            "outcome": "fail",
            "counterexample": {
                "word": "aa", "context": {"squares": 1, "startPositions": [1], "holes": []},
            },
            "findings": {"wordsEnumerated": 8},
        }

    def test_lemma_2k(self, monkeypatch):
        # hide the interior starts of .abaab, leaving its square .aba at 1
        scan = verify_module.power_occurrences
        monkeypatch.setattr(
            verify_module, "power_occurrences",
            lambda w, r: [o for o in scan(w, r) if o.start == 1]
            if format_word(w) == ".abaab" else scan(w, r),
        )
        assert _doc(verify_lemma_2k(2, 4)) == {
            "claim": "lemma-2k",
            "parameters": {"k": 2, "maxULen": 4},
            "instancesChecked": 9,
            "outcome": "fail",
            "counterexample": {"word": ".abaab", "context": {"uLen": 3, "squareLength": 4}},
            "findings": {},
        }

    def test_lemma_short(self, monkeypatch):
        # v = aa of w = .aaa loses its square
        scan = verify_module.power_occurrences
        monkeypatch.setattr(
            verify_module, "power_occurrences",
            lambda w, r: [] if format_word(w) == "aa" else scan(w, r),
        )
        assert _doc(verify_lemma_short(2, 4)) == {
            "claim": "lemma-short",
            "parameters": {"k": 2, "maxULen": 4},
            "instancesChecked": 3,
            "outcome": "fail",
            "counterexample": {
                "word": ".aaa", "context": {"uLen": 2, "squareLength": 2, "v": "aa"},
            },
            "findings": {},
        }


class TestConstructionReports:
    def test_all_pass(self):
        assert verify_construction("square-chain", k=4).passed
        assert verify_construction("prop2", r=5).passed
        assert verify_construction("prop3", r=9).passed
        report = verify_construction("cube-examples")
        assert report.passed
        assert report.instances_checked == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            verify_construction("nonsense")
        with pytest.raises(ValueError):
            verify_construction("prop2")  # r missing
        with pytest.raises(ValueError, match="cube-examples takes no parameter k"):
            verify_construction("cube-examples", k=3)
        with pytest.raises(ValueError, match="square-chain takes no parameter r"):
            verify_construction("square-chain", k=2, r=2)
        with pytest.raises(ValueError, match="prop3 takes no parameter k"):
            verify_construction("prop3", k=5, r=9)


class TestReportShape:
    def test_json_keys(self):
        doc = verify_fine_wilf(2, 6).to_json_dict()
        assert list(doc.keys()) == [
            "claim",
            "parameters",
            "instancesChecked",
            "outcome",
            "counterexample",
            "findings",
            "elapsedSeconds",
        ]
        assert doc["outcome"] == "pass"
        assert doc["counterexample"] is None

    def test_fail_json_carries_counterexample(self):
        doc = verify_theorem_sq_bound(2, 6, bound=1).to_json_dict()
        assert doc["outcome"] == "fail"
        assert doc["counterexample"]["word"] == ".aba"
        assert doc["counterexample"]["context"]["squares"] == 2

    def test_counterexample_word_is_replayable(self):
        report = verify_theorem_sq_bound(2, 6, bound=1)
        w = report.counterexample.word
        # independent recomputation through an unrelated code path
        assert (len(w) // 2) in strong_periods(w)

    def test_values_pickle_and_deepcopy(self):
        # callers may copy results or hand them to other processes, and
        # compare, hash and print them as frozen records
        report = verify_theorem_sq_bound(2, 6, bound=1)
        word = report.counterexample.word
        for value in (word, power_profile(word, 2), report):
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(twin) is type(value)
                assert twin == value
        twin = pickle.loads(pickle.dumps(word))
        assert (str(twin), hash(twin)) == (".aba", hash(word))

        def records():
            # one value of every public record type, built by keyword with
            # the defaults left out
            k2 = Alphabet(size=2)
            w = parse_word(".aba", k2)
            result = SearchResult(best_count=2, witnesses=(w,), nodes_explored=9,
                                  pruned_by_symmetry=1, pruned_by_start_bound=3, exhaustive=True)
            cex = Counterexample(word=w, context={"squares": 2})
            return [
                k2,
                power_profile(w, 2),
                SearchQuery(exponent=3, alphabet_size=2, max_len=8),
                result,
                TableCell(exponent=3, alphabet_size=2, max_len=8, result=result,
                          known=(2, False), flag=""),
                cex,
                VerificationReport(claim="theorem-sq", parameters={"k": 2}, instances_checked=5,
                                   outcome="fail", counterexample=cex),
            ]

        word_text = "PartialWord('.aba', k=2)"
        result_text = (f"SearchResult(best_count=2, witnesses=({word_text},), nodes_explored=9, "
                       "pruned_by_symmetry=1, pruned_by_start_bound=3, exhaustive=True)")
        cex_text = f"Counterexample(word={word_text}, context={{'squares': 2}})"
        # each record's repr, then its fields in constructor order
        expected = [
            ("Alphabet(size=2)", ("size",)),
            (f"PowerProfile(word={word_text}, exponent=2, occurrences=("
             "PowerOccurrence(start=1, length=2, exponent=2, root_length=1), "
             "PowerOccurrence(start=1, length=4, exponent=2, root_length=2)), "
             "start_positions=(1,), unique_start=1)",
             ("word", "exponent", "occurrences", "start_positions", "unique_start")),
            ("SearchQuery(exponent=3, alphabet_size=2, max_len=8, max_start_positions=1, "
             "witness_cap=16)",
             ("exponent", "alphabet_size", "max_len", "max_start_positions", "witness_cap")),
            (result_text, ("best_count", "witnesses", "nodes_explored", "pruned_by_symmetry",
                           "pruned_by_start_bound", "exhaustive")),
            (f"TableCell(exponent=3, alphabet_size=2, max_len=8, result={result_text}, "
             "known=(2, False), flag='')",
             ("exponent", "alphabet_size", "max_len", "result", "known", "flag")),
            (cex_text, ("word", "context")),
            ("VerificationReport(claim='theorem-sq', parameters={'k': 2}, instances_checked=5, "
             f"outcome='fail', counterexample={cex_text}, findings={{}}, elapsed_seconds=0.0)",
             ("claim", "parameters", "instances_checked", "outcome", "counterexample",
              "findings", "elapsed_seconds")),
        ]
        for value, same, (text, fields) in zip(records(), records(), expected, strict=True):
            assert repr(value) == text
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(twin) is type(value)
                assert twin == value and repr(twin) == text
            assert same == value and same is not value
            if isinstance(value, (Counterexample, VerificationReport)):
                # they hold dicts
                with pytest.raises(TypeError):
                    hash(value)
            else:
                assert hash(same) == hash(value)
            # a record is not the tuple of its fields
            as_tuple = tuple(getattr(value, name) for name in fields)
            assert (value == as_tuple) is False and value != as_tuple
            with pytest.raises(AttributeError):
                setattr(value, fields[0], same)
            with pytest.raises(AttributeError):
                delattr(value, fields[0])
            assert repr(value) == text  # the refused writes changed nothing
        # each report gets its own findings dict, and equality ignores the clock
        report, again = records()[-1], records()[-1]
        assert report.findings is not again.findings
        slower = VerificationReport(report.claim, report.parameters, report.instances_checked,
                                    report.outcome, report.counterexample, elapsed_seconds=1.5)
        assert slower == report and slower.elapsed_seconds == 1.5
