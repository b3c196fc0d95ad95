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
one kernel call each, run in worker processes under --jobs. Per-partition
node budgets are fixed up front and results are collected in partition
order, so output is byte-identical for any choice of --jobs: the workers
only change who executes which subtree, never what is explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import ResourceLimitError
from .words import Alphabet, PartialWord, format_word

DEFAULT_NODE_BUDGET = 10**9
_PARTITION_DEPTH = 4


def canonicalize(w: PartialWord) -> PartialWord:
    """Rename letters so that first occurrences appear in alphabetical
    order; holes stay put. Two words differ by a letter permutation exactly
    when their canonical forms are equal."""
    mapping = [0] * (w.alphabet.size + 1)
    nxt = 0
    out = np.empty(len(w), np.int8)
    for i, c in enumerate(w.codes):
        c = int(c)
        if c != 0 and mapping[c] == 0:
            nxt += 1
            mapping[c] = nxt
        out[i] = mapping[c]
    return PartialWord(out, w.alphabet)


def is_canonical(w: PartialWord) -> bool:
    """True when each letter's first occurrence index is at most one above
    the largest index used so far."""
    return bool(_kernels._is_canonical_codes(w.codes))


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
        if not isinstance(self.exponent, int) or self.exponent < 2:
            raise ValueError(f"exponent must be an integer >= 2, got {self.exponent!r}")
        if not isinstance(self.alphabet_size, int) or not 1 <= self.alphabet_size <= 26:
            raise ValueError(f"alphabet size must be in 1..26, got {self.alphabet_size!r}")
        if not isinstance(self.max_len, int) or self.max_len < 1:
            raise ValueError(f"max_len must be a positive integer, got {self.max_len!r}")
        if not isinstance(self.max_start_positions, int) or self.max_start_positions < 1:
            raise ValueError(
                f"max_start_positions must be a positive integer, got {self.max_start_positions!r}"
            )
        if not isinstance(self.witness_cap, int) or self.witness_cap < 1:
            raise ValueError(f"witness_cap must be a positive integer, got {self.witness_cap!r}")


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

    Returns (result, wit_buf, wit_lens, partitions): result is the kernel's
    (status, nodes, pruned_sym, pruned_start, best, n_wit) with the empty
    word counted as a node, and partitions are the qualifying nodes of
    length exactly `depth`, in lex order, whose subtrees remain.
    """
    k, wcap = q.alphabet_size, q.witness_cap
    wit_buf = np.zeros((wcap, depth), np.int8)
    wit_lens = np.zeros(wcap, np.int32)
    frontier = np.zeros((_kernels._canonical_table(k, depth)[depth][0], depth), np.int8)
    # the empty word is the survey's first node, so the kernel gets one less
    status, nodes, pruned_sym, pruned_start, best, n_wit, n_front = _kernels.search_kernel(
        np.zeros(0, np.int8), depth, k, q.exponent, q.max_start_positions,
        budget - 1, wcap, wit_buf, wit_lens, frontier,
    )
    result = (status, nodes + 1, pruned_sym, pruned_start, best, n_wit)
    partitions = [tuple(row) for row in frontier[:n_front].tolist()]
    return result, wit_buf, wit_lens, partitions


def _run_partition(task):
    """Search below one partition prefix; task is the plain tuple (prefix,
    max_len, k, r, t, quota, witness_cap). Returns (result, wit_buf, wit_lens)."""
    prefix, n, k, r, t, quota, wcap = task
    # a witness is no deeper than the deepest node the quota reaches
    wit_buf = np.zeros((wcap, min(n, len(prefix) + quota + 1)), np.int8)
    wit_lens = np.zeros(wcap, np.int32)
    res = _kernels.search_kernel(np.array(prefix, np.int8), n, k, r, t, quota, wcap,
                                 wit_buf, wit_lens, np.zeros((0, n), np.int8))
    return res[:6], wit_buf, wit_lens


def search_max_powers(
    query: SearchQuery,
    budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
) -> SearchResult:
    """Maximize r-th power occurrences over words of length <= max_len with
    at most t distinct occurrence starts; ties among witnesses are resolved
    by shortest-then-lexicographic order and capped at witness_cap.

    When the node budget runs out the result still holds a valid lower
    bound, flagged exhaustive=False.
    """
    if not isinstance(budget, int) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    k, r, t, n = query.alphabet_size, query.exponent, query.max_start_positions, query.max_len
    wcap = query.witness_cap
    depth = min(n, _PARTITION_DEPTH)

    survey, survey_buf, survey_lens, partitions = _survey_prefixes(query, depth, budget)

    results = [(survey, survey_buf, survey_lens)]
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
            # imported here so that no other command pays for loading them
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

            try:
                # a fork-context pool starts all its workers at once
                with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
                    results += pool.map(_run_partition, tasks)
            except BrokenExecutor as exc:
                raise ResourceLimitError(f"a search worker process died: {exc}") from exc

    # the empty word scores 0 and is no kernel's node
    best = max(0, *(int(res[4]) for res, _, _ in results))
    witness_codes = {()} if best == 0 else set()
    nodes = pruned_sym = pruned_start = 0
    exhaustive = True
    for (status, p_nodes, p_sym, p_start, p_best, n_wit), wit_buf, wit_lens in results:
        nodes += int(p_nodes)
        pruned_sym += int(p_sym)
        pruned_start += int(p_start)
        if status != 0:
            exhaustive = False
        if p_best == best:
            for j in range(int(n_wit)):
                witness_codes.add(tuple(wit_buf[j, : wit_lens[j]].tolist()))
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
    for r in r_values:
        for k in k_values:
            query = SearchQuery(
                exponent=r,
                alphabet_size=k,
                max_len=max_len,
                max_start_positions=t,
                witness_cap=witness_cap,
            )
            result = search_max_powers(query, budget=budget, jobs=jobs)
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
