"""Exhaustive search for words maximizing power occurrences under a cap on
distinct occurrence starts.

The search walks the tree of canonical words (letters first appear in
alphabetical order; holes are unaffected) by appending symbols, keeping
occurrence counts incrementally. Appending can only add occurrences, so a
prefix whose distinct starts already exceed the cap t can be cut without
losing any optimum; that and the canonicality restriction are the only
prunings.

Every node is scored by one engine, `_kernels.search_kernel`. A first call
searches from the empty word down to a fixed prefix depth and lists the
qualifying nodes of that depth; the subtrees below them are the partitions,
one kernel call each, run in worker processes under --jobs (a table runs
every cell's partitions through one process pool). Per-partition
node budgets are fixed up front and results are collected in partition
order, so output is byte-identical for any choice of --jobs: the workers
only change who executes which subtree, never what is explored.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import _kernels
from .errors import ResourceLimitError
from .powers import _validate_exponent
from .words import Alphabet, PartialWord, _require_positive, format_word

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


@dataclass(frozen=True)
class SearchQuery:
    """Parameters of one search: exponent r, alphabet size k, maximum word
    length, cap t on distinct occurrence starts, and the witness list cap."""

    exponent: int
    alphabet_size: int
    max_len: int
    max_start_positions: int = 1
    witness_cap: int = 16

    def __post_init__(self):
        _validate_exponent(self.exponent)
        Alphabet(self.alphabet_size)
        _require_positive("max_len", self.max_len)
        _require_positive("max_start_positions", self.max_start_positions)
        _require_positive("witness_cap", self.witness_cap)


@dataclass(frozen=True)
class SearchResult:
    best_count: int
    witnesses: tuple[PartialWord, ...]
    nodes_explored: int
    pruned_by_symmetry: int
    pruned_by_start_bound: int
    exhaustive: bool

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


class _Workers(contextlib.ExitStack):
    """One process pool for the searches run inside a `with` block, opened
    by the first `run` and at the size that call asks for; later calls
    reuse it, and the block's exit shuts it down."""

    pool = None

    def run(self, tasks, size):
        """Run partition tasks in the pool, results in task order."""
        # imported here so that no other command pays for loading them
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            if self.pool is None:
                # a fork-context pool starts all its workers at once
                self.pool = self.enter_context(ProcessPoolExecutor(max_workers=size))
            return list(self.pool.map(_run_partition, tasks))
        except BrokenExecutor as exc:
            raise ResourceLimitError(f"a search worker process died: {exc}") from exc


def search_max_powers(
    query: SearchQuery,
    budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
    *,
    _workers=None,
) -> SearchResult:
    """Maximize r-th power occurrences over words of length <= max_len with
    at most t distinct occurrence starts; ties among witnesses are resolved
    by shortest-then-lexicographic order and capped at witness_cap.

    When the node budget runs out the result still holds a valid lower
    bound, flagged exhaustive=False. `_workers` is for lower_bound_table:
    a `_Workers` that keeps one process pool open across its searches.
    """
    _require_positive("budget", budget)
    _require_positive("jobs", jobs)
    k, r, t, n = query.alphabet_size, query.exponent, query.max_start_positions, query.max_len
    wcap = query.witness_cap
    depth = min(n, _PARTITION_DEPTH)

    survey, partitions = _survey_prefixes(query, depth, budget)

    results = [survey]
    if survey[0] == 0 and partitions:
        remaining = budget - survey[1]
        count = len(partitions)
        # the first remaining % count partitions get one node more
        tasks = [
            (prefix, n, k, r, t, remaining // count + (i < remaining % count), wcap)
            for i, prefix in enumerate(partitions)
        ]
        if jobs == 1 or count == 1:
            results += map(_run_partition, tasks)
        else:
            with _Workers() as own:
                workers = own if _workers is None else _workers
                results += workers.run(tasks, min(jobs, count))

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
    ordered = sorted(witness_codes, key=lambda c: (len(c), c))[:wcap]
    alphabet = Alphabet(k)
    witnesses = tuple(PartialWord(c, alphabet) for c in ordered)

    return SearchResult(
        best_count=best,
        witnesses=witnesses,
        nodes_explored=nodes,
        pruned_by_symmetry=pruned_sym,
        pruned_by_start_bound=pruned_start,
        exhaustive=exhaustive,
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


@dataclass(frozen=True)
class TableCell:
    exponent: int
    alphabet_size: int
    max_len: int
    result: SearchResult
    known: Optional[tuple[int, bool]]
    flag: str  # "" | "new" | "conflict"

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
    witness_cap: int = 4,
    budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
) -> List[TableCell]:
    """One bounded search per (r, k) cell, annotated with the established
    bound and flagged when the search exceeds it: "conflict" against an
    exact value (a bug), "new" against a lower bound (an improvement).
    Raises ValueError when either range is empty."""
    if not r_values:
        raise ValueError("exponent range is empty")
    if not k_values:
        raise ValueError("alphabet size range is empty")
    cells = []
    # every cell runs its partitions through one pool, opened by the first
    # cell that has more than one
    with _Workers() as workers:
        for r in r_values:
            for k in k_values:
                query = SearchQuery(
                    exponent=r,
                    alphabet_size=k,
                    max_len=max_len,
                    max_start_positions=t,
                    witness_cap=witness_cap,
                )
                result = search_max_powers(query, budget=budget, jobs=jobs, _workers=workers)
                known = known_bound(r, k)
                flag = ""
                if known is not None and result.best_count > known[0]:
                    flag = "conflict" if known[1] else "new"
                cells.append(
                    TableCell(
                        exponent=r,
                        alphabet_size=k,
                        max_len=max_len,
                        result=result,
                        known=known,
                        flag=flag,
                    )
                )
    return cells
