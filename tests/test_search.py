"""Exhaustive search: canonical enumeration, pruning soundness, witnesses,
budgets, deterministic parallelism."""

import tracemalloc

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
from pwpowers import _kernels
from pwpowers._kernels import search_kernel
from pwpowers.search import _PARTITION_DEPTH, _anchored_optimum, _survey_prefixes
from helpers import (
    all_code_tuples,
    brute_occurrences,
    brute_search,
    class_occurrences,
    is_canonical_codes,
    search_kernel_reference,
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

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # the sizes of the process pools the search opens; the fake pool
        # runs its tasks in this process and starts no worker
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
        return sizes

    def test_pool_is_capped_at_the_partitions(self, pool_sizes):
        # a fork pool starts every worker at once, so a huge --jobs must not
        # reach it
        query = _query(3, 2, 9)
        partitions = _survey_prefixes(query, 4, 10**9)[1]
        assert search_max_powers(query, jobs=10**6) == search_max_powers(query, jobs=1)
        assert pool_sizes == [len(partitions)]

    @pytest.mark.parametrize("jobs", [2, 10**6])
    def test_table_opens_one_pool(self, pool_sizes, jobs):
        # every cell of a t >= 2 table runs its partitions through one pool,
        # sized by the cell with the most partitions (t=1 cells open none)
        cells = [_query(r, k, 8, t=2) for r in range(2, 4) for k in range(1, 3)]
        counts = [len(_survey_prefixes(q, _PARTITION_DEPTH, 10**9)[1]) for q in cells]
        table = lambda jobs: lower_bound_table(range(2, 4), range(1, 3), 8, t=2, jobs=jobs)
        assert table(jobs) == table(1)
        assert pool_sizes == [min(jobs, max(counts))]

    @pytest.mark.parametrize("r, k", [(2, 2), (3, 3)])
    def test_no_pool_when_the_survey_covers_the_tree(self, pool_sizes, r, k):
        # at max_len <= the partition depth every partition is a leaf of
        # the survey, with nothing below it to run
        for n in range(1, _PARTITION_DEPTH + 1):
            for t in (1, 2):
                query = _query(r, k, n, t=t)
                assert search_max_powers(query, jobs=2) == search_max_powers(query, jobs=1)
            assert lower_bound_table([r], [k], n, t=2, jobs=2) == lower_bound_table(
                [r], [k], n, t=2, jobs=1
            )
        assert pool_sizes == []

    def test_table_validates_every_cell_first(self, monkeypatch):
        # k=27 is past the alphabet, so no cell may run before it fails
        calls = []
        monkeypatch.setattr(_kernels, "search_kernel", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="alphabet"):
            lower_bound_table([2], range(25, 28), 6, t=2)
        assert calls == []

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
        # partitions, in lex order. The kernel's own best and witnesses,
        # before any merge, are over the explored nodes with at most t
        # starts: the largest count, and the first `cap` nodes attaining
        # it in (length, lex) order
        for k in (1, 2, 3):
            occurrences = {
                codes: brute_occurrences(codes, k, r)
                for codes in all_code_tuples(4, k)
                if is_canonical_codes(codes)
            }
            starts = {c: len({s for s, _ in occ}) for c, occ in occurrences.items()}
            for t in (1, 2):
                for depth in (1, 2, 3, 4):
                    explored = [c for c in starts if 1 <= len(c) <= depth and starts[c[:-1]] <= t]
                    pruned = [c for c in explored if starts[c] > t]
                    scored = [c for c in explored if starts[c] <= t]  # (length, lex) order
                    frontier = sorted(c for c in scored if len(c) == depth)
                    best = max(len(occurrences[c]) for c in scored)
                    ties = [c for c in scored if len(occurrences[c]) == best]
                    for cap in (1, 3, 16):
                        res, partitions = _survey_prefixes(_query(r, k, 9, t, cap), depth, 10**9)
                        case = (r, k, t, depth, cap)
                        assert partitions == frontier, case
                        assert res[0] == 0, case
                        assert res[1] == 1 + len(explored), case
                        assert res[3] == len(pruned), case
                        assert res[4] == best, case
                        assert [tuple(c) for c in res[5]] == ties[:cap], case


class TestKernelBudgets:
    @pytest.mark.parametrize("r, k, n, t, wcap", [
        (2, 2, 6, 1, 1),  # every leaf has two square starts
        (2, 1, 5, 2, 16),
        (2, 3, 5, 2, 2),  # the partitions are parents of leaves
        (3, 2, 6, 1, 3),
    ])
    def test_every_budget_matches_the_preorder_oracle(self, r, k, n, t, wcap):
        # the kernel must stop at exactly the node where a node-by-node walk
        # runs out of budget, whatever it scores in one step; from the empty
        # word and from some of the search's partitions, one past each
        # subtree's size included
        partitions = _survey_prefixes(_query(r, k, n, t), min(n, _PARTITION_DEPTH), 10**9)[1]
        for prefix in [()] + partitions[::3]:
            for survey in (False, True):
                args = (n, k, r, t)
                size = search_kernel_reference(prefix, *args, 10**9, wcap, survey)[1]
                for budget in range(1, size + 2):
                    expected = search_kernel_reference(prefix, *args, budget, wcap, survey)
                    got = search_kernel(bytes(prefix), *args, budget, wcap, survey)
                    assert got == expected, (prefix, survey, budget)


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


# (r, k, n): the cells that search table decides by anchored branch-and-bound
# and search_max_powers by its exhaustive walk, in both at t=1
ANCHORED_GRID = [
    (r, k, n) for r in range(2, 7) for k in (1, 2, 3) for n in range(1, 11 if k == 3 else 13)
]


class TestAnchoredTable:
    def test_matches_the_exhaustive_search(self):
        # the shortest best words all start every power at position 1, so
        # the anchored route must find search's best count and first witness
        nodes = 0
        for r, k, n in ANCHORED_GRID:
            cell = lower_bound_table([r], [k], n)[0].result
            expected = search_max_powers(_query(r, k, n, cap=1))
            case = (r, k, n)
            assert cell.exhaustive and expected.exhaustive, case
            assert cell.best_count == expected.best_count, case
            assert cell.witnesses == expected.witnesses[:1], case
            nodes += cell.nodes_explored
        # the exhaustive walk takes 1,946,991 nodes on this grid
        assert len(ANCHORED_GRID) == 170
        assert nodes == 4035

    def test_squares_tree_is_finite(self):
        # every anchored binary word with two or more squares is found among
        # 39 nodes at any length, so none carries three squares at a unique
        # start: the paper's bound at k=2, with no bound cut involved
        for n in (20, 50, 200):
            res = search_kernel(b"", n, 2, 2, 1, 10**6, 1, False, (0, n // 2))
            assert (res[0], res[1], res[4]) == (0, 39, 2), n

    def test_memory_follows_the_depth_reached(self):
        # the 39-node tree at max_len 10^6 and the default budget: the
        # kernel's per-depth state grows with the depth the walk reaches,
        # never with max_len or the budget
        tracemalloc.start()
        try:
            cell = lower_bound_table([2], [2], 10**6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cell.result.best_count, cell.result.exhaustive) == (2, True)
        assert peak < 5 * 10**6

    @pytest.mark.parametrize("r, n, best, witness, flag, nodes", [
        (2, 200, 2, ".aba", "", 50),
        (4, 32, 4, "...abab.aba.baba.ba.baba.b.ab..a", "new", 26093),
        (3, 39, 4, "..ababbaba.babaababbaba.babaababbaba.ba", "new", 80735),
    ])
    def test_far_cells(self, r, n, best, witness, flag, nodes):
        # past the exhaustive search's reach; the witness is re-checked
        # class by class, not with the scan
        cell = lower_bound_table([r], [2], n)[0]
        assert (cell.result.best_count, cell.flag, cell.result.exhaustive) == (best, flag, True)
        assert cell.result.nodes_explored == nodes
        assert [format_word(w) for w in cell.result.witnesses] == [witness]
        rows = class_occurrences(word(witness).codes, r)
        assert len(rows) == best
        assert {start for start, _ in rows} == {0}

    @pytest.mark.parametrize("r, n", [(3, 12), (6, 12), (2, 200), (3, 39)])
    def test_deepening_starts_at_r_times_best(self, monkeypatch, r, n):
        # best powers from one start have best distinct roots, so the walks
        # that look for the least length start at length r * best
        kernel, lengths = _kernels.search_kernel, []

        def recording_kernel(prefix, max_len, *args):
            if args[-1][0] > 0:  # a least-length walk: its floor is best - 1
                lengths.append(max_len)
            return kernel(prefix, max_len, *args)

        monkeypatch.setattr(_kernels, "search_kernel", recording_kernel)
        best = _anchored_optimum(r, 2, n, 10**9).best_count
        assert lengths[0] == r * best
        assert lengths == list(range(r * best, r * best + len(lengths)))

    @pytest.mark.parametrize("r, n", [(3, 39), (4, 16), (2, 9)])
    def test_budget_gives_a_word_attaining_the_bound(self, r, n):
        # a budget that stops either phase still leaves a count that its
        # witness attains, with every power at position 1
        full = _anchored_optimum(r, 2, n, 10**9)
        for budget in sorted({1, 2, 3, 10, 40, 300, 5000} | {full.nodes_explored - 1}):
            if budget >= full.nodes_explored:
                continue
            res = _anchored_optimum(r, 2, n, budget)
            assert not res.exhaustive and res.nodes_explored <= budget, budget
            assert res.best_count <= full.best_count, budget
            (witness,) = res.witnesses
            assert len(witness) <= n, budget
            rows = class_occurrences(witness.codes, r)
            assert len(rows) == res.best_count, budget
            assert {start for start, _ in rows} <= {0}, budget
        assert _anchored_optimum(r, 2, n, full.nodes_explored) == full
