"""Exhaustive search for words maximizing power occurrences under a cap on
distinct occurrence starts.

The search walks the tree of canonical words (letters first appear in
alphabetical order; holes are unaffected) by appending symbols, keeping
occurrence counts incrementally. Appending can only add occurrences, so a
prefix whose distinct starts already exceed the cap t can be cut without
losing any optimum; `search_max_powers` prunes by that and by
canonicality alone. `search table` decides its t=1 cells by a
branch-and-bound over the words whose powers all start at position 1
(`_anchored_optimum`), which reach the same optimum and first witness.

Every node is scored by one engine, `_kernels.search_kernel`. A first call
searches from the empty word down to a fixed prefix depth and lists the
qualifying nodes of that depth; the subtrees below them are the partitions,
one kernel call each. `_search_all` surveys every search it is given (one,
or every cell of a table at t >= 2) before any partition runs, then runs
all their partitions under --jobs in one process pool, sized by the search
with the most partitions; anchored t=1 cells run in this process.
Per-partition node budgets are fixed up front and results are collected in
partition order, so output is byte-identical for any choice of --jobs: the
workers only change who executes which subtree, never what is explored.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence

from . import _kernels
from .errors import ResourceLimitError
from .powers import _validate_exponent
from .words import Alphabet, PartialWord, _Record, _require_positive, format_word

DEFAULT_NODE_BUDGET = 10**9
_PARTITION_DEPTH = 4


def canonicalize(w: PartialWord) -> PartialWord:
    """Rename letters so that first occurrences appear in alphabetical
    order; holes stay put. Two words differ by a letter permutation exactly
    when their canonical forms are equal."""
    mapping = [0] * (w.alphabet.size + 1)
    nxt = 0
    for c in w.codes:
        if c != 0 and mapping[c] == 0:
            nxt += 1
            mapping[c] = nxt
    return PartialWord([mapping[c] for c in w.codes], w.alphabet)


def is_canonical(w: PartialWord) -> bool:
    """True when each letter's first occurrence index is at most one above
    the largest index used so far."""
    mu = 0  # the largest letter index so far
    for c in w.codes:
        if c > mu + 1:
            return False
        mu = max(mu, c)
    return True


class SearchQuery(_Record):
    """Parameters of one search: exponent r, alphabet size k, maximum word
    length, cap t on distinct occurrence starts, and the witness list cap."""

    __slots__ = ("exponent", "alphabet_size", "max_len", "max_start_positions", "witness_cap")

    def __init__(
        self,
        exponent: int,
        alphabet_size: int,
        max_len: int,
        max_start_positions: int = 1,
        witness_cap: int = 16,
    ):
        _validate_exponent(exponent)
        Alphabet(alphabet_size)
        _require_positive("max_len", max_len)
        _require_positive("max_start_positions", max_start_positions)
        _require_positive("witness_cap", witness_cap)
        self._set(exponent, alphabet_size, max_len, max_start_positions, witness_cap)


class SearchResult(_Record):
    __slots__ = ("best_count", "witnesses", "nodes_explored", "pruned_by_symmetry",
                 "pruned_by_start_bound", "exhaustive")

    def __init__(
        self,
        best_count: int,
        witnesses: tuple[PartialWord, ...],
        nodes_explored: int,
        pruned_by_symmetry: int,
        pruned_by_start_bound: int,
        exhaustive: bool,
    ):
        self._set(best_count, witnesses, nodes_explored, pruned_by_symmetry,
                  pruned_by_start_bound, exhaustive)

    def to_json_dict(self) -> dict:
        return {
            "bestCount": self.best_count,
            "witnesses": [format_word(w) for w in self.witnesses],
            "nodesExplored": self.nodes_explored,
            "prunedBySymmetry": self.pruned_by_symmetry,
            "prunedByStartBound": self.pruned_by_start_bound,
            "exhaustive": self.exhaustive,
        }


def _survey_prefixes(q: SearchQuery, depth: int, budget: int):
    """Search the canonical tree from the empty word down to `depth` symbols
    with one kernel call.

    Returns (result, partitions): result is the kernel's (status, nodes,
    pruned_sym, pruned_start, best, witnesses) with the empty word counted
    as a node, and partitions are the qualifying nodes of length exactly
    `depth`, in lex order, whose subtrees remain.
    """
    # the empty word is the survey's first node, so the kernel gets one less
    status, nodes, pruned_sym, pruned_start, best, witnesses, frontier = _kernels.search_kernel(
        b"", depth, q.alphabet_size, q.exponent, q.max_start_positions,
        budget - 1, q.witness_cap, True,
    )
    result = (status, nodes + 1, pruned_sym, pruned_start, best, witnesses)
    return result, [tuple(row) for row in frontier]


def _run_partition(task):
    """Search below one partition prefix; task is the plain tuple (prefix,
    max_len, k, r, t, quota, witness_cap). Returns the kernel's (status,
    nodes, pruned_sym, pruned_start, best, witnesses)."""
    prefix, n, k, r, t, quota, wcap = task
    return _kernels.search_kernel(prefix, n, k, r, t, quota, wcap, False)[:6]


def _search_all(queries: Sequence[SearchQuery], budget: int, jobs: int) -> List[SearchResult]:
    """Run the searches of `queries`, each under its own node budget.

    Every query is surveyed, and its partitions' node quotas fixed, before
    any partition runs. Then every partition of every query runs, here or
    in one process pool of min(jobs, the largest query's partition count).
    """
    plans = []
    for q in queries:
        survey, partitions = _survey_prefixes(q, min(q.max_len, _PARTITION_DEPTH), budget)
        # a survey down to max_len leaves its partitions nothing to explore
        if survey[0] != 0 or q.max_len <= _PARTITION_DEPTH:
            partitions = []
        remaining, count = budget - survey[1], len(partitions)
        # the first remaining % count partitions get one node more
        tasks = [
            (prefix, q.max_len, q.alphabet_size, q.exponent, q.max_start_positions,
             remaining // count + (i < remaining % count), q.witness_cap)
            for i, prefix in enumerate(partitions)
        ]
        plans.append((q, survey, tasks))

    tasks = [task for _, _, own in plans for task in own]
    size = min(jobs, max(len(own) for _, _, own in plans))
    if size <= 1:
        outcomes = map(_run_partition, tasks)
    else:
        # imported here so that no other command pays for loading them
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            # a fork-context pool starts all its workers at once
            with ProcessPoolExecutor(max_workers=size) as pool:
                outcomes = iter(list(pool.map(_run_partition, tasks)))
        except BrokenExecutor as exc:
            raise ResourceLimitError(f"a search worker process died: {exc}") from exc

    searches = []
    for q, survey, own in plans:
        results = [survey, *islice(outcomes, len(own))]
        # the empty word scores 0 and is no kernel's node
        best = max(0, *(res[4] for res in results))
        witness_codes = {()} if best == 0 else set()
        nodes = pruned_sym = pruned_start = 0
        exhaustive = True
        for status, p_nodes, p_sym, p_start, p_best, p_witnesses in results:
            nodes += p_nodes
            pruned_sym += p_sym
            pruned_start += p_start
            if status != 0:
                exhaustive = False
            if p_best == best:
                witness_codes.update(map(tuple, p_witnesses))
        ordered = sorted(witness_codes, key=lambda c: (len(c), c))[: q.witness_cap]
        alphabet = Alphabet(q.alphabet_size)
        searches.append(
            SearchResult(
                best_count=best,
                witnesses=tuple(PartialWord(c, alphabet) for c in ordered),
                nodes_explored=nodes,
                pruned_by_symmetry=pruned_sym,
                pruned_by_start_bound=pruned_start,
                exhaustive=exhaustive,
            )
        )
    return searches


def search_max_powers(
    query: SearchQuery, budget: int = DEFAULT_NODE_BUDGET, jobs: int = 1
) -> SearchResult:
    """Maximize r-th power occurrences over words of length <= max_len with
    at most t distinct occurrence starts; ties among witnesses are resolved
    by shortest-then-lexicographic order and capped at witness_cap.

    When the node budget runs out the result still holds a valid lower
    bound, flagged exhaustive=False.
    """
    _require_positive("budget", budget)
    _require_positive("jobs", jobs)
    return _search_all([query], budget, jobs)[0]


def _anchored_optimum(r: int, k: int, n: int, budget: int) -> SearchResult:
    """The t=1 optimum over length <= n, by anchored branch-and-bound.

    The suffix of a word from its one power start keeps every power and is
    no longer, so the optimum is reached by words whose powers all start at
    position 1, and every shortest best word is one. A first walk finds the
    best count. Then, for L = r * best, r * best + 1, ..., a walk over
    length <= L stops at the first word reaching it, which is the lex-first
    at the least length: the search's first witness. The node budget covers
    both phases; if it runs out, the result holds the best count found and a
    word attaining it.
    """
    # a kernel's witnesses count only when its best passes its floor
    status, nodes, pruned_sym, pruned, best, witnesses, _ = _kernels.search_kernel(
        b"", n, k, r, 1, budget - 1, 1, False, (0, n // r)
    )
    nodes += 1  # the empty word
    # best powers from one start have best distinct roots, the largest at
    # least best long, so no word shorter than r * best reaches best
    word, length = (witnesses[0] if best else ()), r * best
    while best and status == 0:
        status, more, more_sym, more_pruned, reached, found, _ = _kernels.search_kernel(
            b"", length, k, r, 1, budget - nodes, 1, False, (best - 1, best)
        )
        nodes, pruned_sym, pruned = nodes + more, pruned_sym + more_sym, pruned + more_pruned
        if reached == best:
            word = found[0]
            break
        length += 1
    return SearchResult(
        best_count=best,
        witnesses=(PartialWord(word, Alphabet(k)),),
        nodes_explored=nodes,
        pruned_by_symmetry=pruned_sym,
        pruned_by_start_bound=pruned,
        exhaustive=status == 0,
    )


def known_bound(r: int, k: int) -> Optional[tuple[int, bool]]:
    """Established value for the maximum, as (value, exact): exact k for
    squares; for r >= 3 and k >= 2 a lower bound of 3 when r is an odd
    multiple of 3, else 2. None when nothing established applies."""
    if r == 2:
        return (k, True)
    if k >= 2:
        return (3, False) if r % 6 == 3 else (2, False)
    return None


class TableCell(_Record):
    __slots__ = ("exponent", "alphabet_size", "max_len", "result", "known", "flag")

    def __init__(
        self,
        exponent: int,
        alphabet_size: int,
        max_len: int,
        result: SearchResult,
        known: Optional[tuple[int, bool]],
        flag: str,  # "" | "new" | "conflict"
    ):
        self._set(exponent, alphabet_size, max_len, result, known, flag)

    def to_json_dict(self) -> dict:
        known_value = None if self.known is None else self.known[0]
        known_exact = None if self.known is None else self.known[1]
        return {
            "r": self.exponent,
            "k": self.alphabet_size,
            "maxLen": self.max_len,
            "bestCount": self.result.best_count,
            "exhaustive": self.result.exhaustive,
            "knownBound": known_value,
            "knownExact": known_exact,
            "flag": self.flag,
            "witness": (
                format_word(self.result.witnesses[0]) if self.result.witnesses else None
            ),
        }


def lower_bound_table(
    r_values: Sequence[int],
    k_values: Sequence[int],
    max_len: int,
    t: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
) -> List[TableCell]:
    """One bounded search per (r, k) cell, annotated with the established
    bound and flagged when the search exceeds it: "conflict" against an
    exact value (a bug), "new" against a lower bound (an improvement).
    Every cell's query is built, and so validated, before any cell runs.
    At t=1 a cell is decided in this process by `_anchored_optimum`, and
    its result holds one witness; at t >= 2 every cell is searched by
    `_search_all`, whose one process pool serves the whole table.
    Raises ValueError when either range is empty."""
    if not r_values:
        raise ValueError("exponent range is empty")
    if not k_values:
        raise ValueError("alphabet size range is empty")
    _require_positive("budget", budget)
    _require_positive("jobs", jobs)
    queries = [
        SearchQuery(
            exponent=r, alphabet_size=k, max_len=max_len, max_start_positions=t, witness_cap=1
        )
        for r in r_values
        for k in k_values
    ]
    if t == 1:
        results = [_anchored_optimum(q.exponent, q.alphabet_size, max_len, budget)
                   for q in queries]
    else:
        results = _search_all(queries, budget, jobs)
    cells = []
    for q, result in zip(queries, results):
        known = known_bound(q.exponent, q.alphabet_size)
        flag = ""
        if known is not None and result.best_count > known[0]:
            flag = "conflict" if known[1] else "new"
        cells.append(
            TableCell(
                exponent=q.exponent,
                alphabet_size=q.alphabet_size,
                max_len=max_len,
                result=result,
                known=known,
                flag=flag,
            )
        )
    return cells
