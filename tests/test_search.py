"""Exhaustive search: canonical enumeration, pruning soundness, witnesses,
budgets, deterministic parallelism."""

import pytest

from pwpowers import (
    SearchQuery,
    SearchResult,
    canonicalize,
    format_word,
    is_canonical,
    known_bound,
    lower_bound_table,
    power_profile,
    search_max_powers,
)
from pwpowers.search import _survey_prefixes
from helpers import (
    all_code_tuples,
    brute_occurrences,
    brute_search,
    is_canonical_codes,
    to_word,
    unpruned_search,
    word,
)


class TestCanonicalize:
    def test_examples(self):
        assert format_word(canonicalize(word("cbc"))) == "aba"
        assert format_word(canonicalize(word(".ba"))) == ".ab"
        assert format_word(canonicalize(word("aba"))) == "aba"
        assert format_word(canonicalize(word("", 2))) == ""

    def test_is_canonical(self):
        assert is_canonical(word("aba"))
        assert is_canonical(word(".ab"))
        assert not is_canonical(word(".ba"))
        assert not is_canonical(word("b", 2))

    def test_matches_reference_exhaustively(self):
        from helpers import canonicalize_codes

        for codes in all_code_tuples(5, 3):
            w = to_word(codes, 3)
            assert tuple(int(c) for c in canonicalize(w).codes) == canonicalize_codes(codes)
            assert is_canonical(w) == is_canonical_codes(codes)


def _query(r, k, n, t=1, cap=16):
    return SearchQuery(exponent=r, alphabet_size=k, max_len=n,
                       max_start_positions=t, witness_cap=cap)


class TestSearchSmall:
    def test_frozen_square_case(self):
        res = search_max_powers(_query(2, 2, 4))
        assert res.best_count == 2
        assert [format_word(w) for w in res.witnesses] == [".aba"]
        assert res.exhaustive

    def test_matches_brute_force(self):
        for r, k, n, t in [
            (2, 2, 5, 1),
            (2, 2, 5, 2),
            (2, 1, 5, 1),
            (3, 2, 5, 1),
            (3, 2, 6, 2),
            (5, 2, 3, 1),  # best 0: the empty word is the first witness
        ]:
            best, wits = brute_search(r, k, n, t)
            res = search_max_powers(_query(r, k, n, t))
            assert res.best_count == best, (r, k, n, t)
            got = [tuple(int(c) for c in w.codes) for w in res.witnesses]
            assert got == wits, (r, k, n, t)

    def test_pruned_equals_unpruned(self):
        # the spot check: same optimum and witnesses with pruning disabled
        for t in (1, 2):
            best, wits = unpruned_search(2, 2, 8, t)
            res = search_max_powers(_query(2, 2, 8, t))
            assert res.best_count == best
            assert [tuple(int(c) for c in w.codes) for w in res.witnesses] == wits

    def test_visits_every_canonical_word_without_start_pruning(self):
        # with t beyond any attainable start count the only pruning left is
        # symmetry, so nodes == number of canonical words of length <= n
        n, k = 6, 2
        canonical = sum(
            1 for codes in all_code_tuples(n, k) if is_canonical_codes(codes)
        )
        res = search_max_powers(_query(2, k, n, t=n))
        assert res.nodes_explored == canonical
        assert res.pruned_by_start_bound == 0

    def test_witnesses_satisfy_query(self):
        res = search_max_powers(_query(2, 2, 8, 1))
        assert res.witnesses
        for w in res.witnesses:
            profile = power_profile(w, 2)
            assert len(profile.occurrences) == res.best_count
            assert len(profile.start_positions) <= 1
            assert len(w) <= 8

    def test_witness_cap(self):
        res = search_max_powers(_query(2, 2, 6, t=3, cap=2))
        assert len(res.witnesses) == 2


class TestSearchKnownValues:
    def test_squares_attain_alphabet_size(self):
        assert search_max_powers(_query(2, 2, 12)).best_count == 2
        res = search_max_powers(_query(2, 3, 8))
        assert res.best_count == 3
        assert format_word(res.witnesses[0]) == ".abacaba"

    def test_cubes_n9(self):
        res = search_max_powers(_query(3, 2, 9, cap=100))
        assert res.best_count == 3
        texts = [format_word(w) for w in res.witnesses]
        assert texts == ["..aba.ba.", "..aba.baa"]

    def test_monotone_in_length_alphabet_and_t(self):
        best_n = [search_max_powers(_query(2, 2, n)).best_count for n in (2, 4, 6)]
        assert best_n == sorted(best_n)
        best_k = [search_max_powers(_query(2, k, 8)).best_count for k in (1, 2, 3)]
        assert best_k == sorted(best_k)
        t1 = search_max_powers(_query(2, 2, 4, t=1)).best_count
        t2 = search_max_powers(_query(2, 2, 4, t=2)).best_count
        assert t1 <= t2
        assert (t1, t2) == (2, 3)  # "..ab" carries 3 squares from 2 starts


class TestDeterminismAndBudget:
    def test_jobs_do_not_change_the_result(self):
        for jobs in (2, 3, 8):
            assert search_max_powers(_query(3, 2, 9), jobs=jobs) == search_max_powers(
                _query(3, 2, 9), jobs=1
            )

    def test_budget_gives_valid_lower_bound(self):
        full = search_max_powers(_query(2, 2, 8))
        capped = search_max_powers(_query(2, 2, 8), budget=40)
        assert not capped.exhaustive
        assert capped.nodes_explored <= 40
        assert 0 <= capped.best_count <= full.best_count
        for w in capped.witnesses:
            profile = power_profile(w, 2)
            assert len(profile.occurrences) == capped.best_count
            assert len(profile.start_positions) <= 1

    @pytest.mark.parametrize("budget, expected", [
        (1, (0, [""], 1, 1, 0)),
        (2, (0, ["", "."], 2, 2, 0)),
        (36, (2, [".aba"], 36, 3, 18)),
        (37, (2, [".aba"], 37, 3, 19)),
        (38, (2, [".aba"], 38, 3, 20)),
    ])
    def test_budget_stops_inside_the_survey(self, budget, expected):
        # the prefix survey of r=2, k=2 holds 37 nodes, the empty word
        # included; these budgets stop inside it, at its end and just past
        # it, where the worker processes of jobs=2 run the partitions
        best, witnesses, nodes, pruned_sym, pruned_start = expected
        for jobs in (1, 2) if budget == 38 else (1,):
            res = search_max_powers(_query(2, 2, 8), budget=budget, jobs=jobs)
            assert res.to_json_dict() == {
                "bestCount": best,
                "witnesses": witnesses,
                "nodesExplored": nodes,
                "prunedBySymmetry": pruned_sym,
                "prunedByStartBound": pruned_start,
                "exhaustive": False,
            }

    def test_budget_determinism_across_jobs(self):
        # t=2 stops on the budget inside the partitions
        for t in (1, 2):
            a = search_max_powers(_query(2, 2, 10, t=t), budget=300, jobs=1)
            b = search_max_powers(_query(2, 2, 10, t=t), budget=300, jobs=8)
            assert a == b
        assert not b.exhaustive

    def test_pool_is_capped_at_the_partitions(self, monkeypatch):
        # a fork pool starts every worker at once, so a huge --jobs must not
        # reach it; the fake pool starts no process
        import concurrent.futures

        sizes = []

        class SequentialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SequentialPool)
        query = _query(3, 2, 9)
        partitions = _survey_prefixes(query, 4, 10**9)[3]
        assert search_max_powers(query, jobs=10**6) == search_max_powers(query, jobs=1)
        assert sizes == [len(partitions)]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchQuery(exponent=1, alphabet_size=2, max_len=4)
        with pytest.raises(ValueError):
            SearchQuery(exponent=2, alphabet_size=0, max_len=4)
        with pytest.raises(ValueError):
            SearchQuery(exponent=2, alphabet_size=2, max_len=0)
        with pytest.raises(ValueError):
            SearchQuery(exponent=2, alphabet_size=2, max_len=4, max_start_positions=0)
        with pytest.raises(ValueError):
            search_max_powers(_query(2, 2, 4), budget=0)
        with pytest.raises(ValueError):
            search_max_powers(_query(2, 2, 4), jobs=0)


class TestSurvey:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_frontier_matches_oracle(self, r):
        # a node is explored when its parent has at most t starts (starts
        # only grow by appending, so then every ancestor has too), and the
        # explored nodes of full depth with at most t starts are the
        # partitions, in lex order
        for k in (1, 2, 3):
            starts = {
                codes: len({s for s, _ in brute_occurrences(codes, k, r)})
                for codes in all_code_tuples(4, k)
                if is_canonical_codes(codes)
            }
            for t in (1, 2):
                for depth in (1, 2, 3, 4):
                    explored = [c for c in starts if 1 <= len(c) <= depth and starts[c[:-1]] <= t]
                    pruned = [c for c in explored if starts[c] > t]
                    frontier = sorted(c for c in explored if len(c) == depth and starts[c] <= t)
                    res, _, _, partitions = _survey_prefixes(_query(r, k, 9, t), depth, 10**9)
                    case = (r, k, t, depth)
                    assert partitions == frontier, case
                    assert res[0] == 0, case
                    assert res[1] == 1 + len(explored), case
                    assert res[3] == len(pruned), case


class TestKnownBoundsAndTable:
    def test_known_bound_values(self):
        assert known_bound(2, 1) == (1, True)
        assert known_bound(2, 4) == (4, True)
        assert known_bound(3, 2) == (3, False)
        assert known_bound(9, 2) == (3, False)
        assert known_bound(15, 3) == (3, False)
        assert known_bound(4, 2) == (2, False)
        assert known_bound(6, 2) == (2, False)  # even multiple of 3
        assert known_bound(5, 2) == (2, False)
        assert known_bound(3, 1) is None

    def test_table_cells(self):
        cells = lower_bound_table(range(2, 5), range(1, 3), 6)
        assert len(cells) == 6
        by_rk = {(c.exponent, c.alphabet_size): c for c in cells}
        assert by_rk[(2, 2)].result.best_count == 2
        assert by_rk[(2, 2)].flag == ""
        assert by_rk[(3, 2)].result.best_count == 2  # length 9 would be needed for 3
        assert by_rk[(4, 2)].result.best_count == 1  # length 8 needed for 2
        assert all(c.result.exhaustive for c in cells)
        assert all(c.flag == "" for c in cells)

    def test_table_json_shape(self):
        cell = lower_bound_table([2], [2], 4)[0]
        doc = cell.to_json_dict()
        assert list(doc.keys()) == [
            "r", "k", "maxLen", "bestCount", "exhaustive",
            "knownBound", "knownExact", "flag", "witness",
        ]
        assert doc["bestCount"] == 2
        assert doc["witness"] == ".aba"

    def test_table_rejects_empty_ranges(self):
        with pytest.raises(ValueError, match="exponent range is empty"):
            lower_bound_table(range(4, 3), [2], 4)
        with pytest.raises(ValueError, match="alphabet size range is empty"):
            lower_bound_table([2], [], 4)
