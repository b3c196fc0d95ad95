"""Workloads shared by the timed run (run.py) and the traced run (trace.py).

A workload is a CLI argument list, an optional stdin text made from the seed,
and a check of the CLI's stdout against facts that are either pinned here or
derived from the seed by an oracle that does not use the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

# The trivial CLI call whose duration is the benchmark's set-up time.
SETUP_ARGV = ["construct", "square-chain", "--k", "1"]
SETUP_STDOUT = ".a\n"

SEARCH_TABLE_ARGV = [
    "search", "table", "--r-min", "3", "--r-max", "6",
    "--k-min", "2", "--k-max", "2", "--max-len", "12", "--json",
]
# (r, k, bestCount, witness, exhaustive) per cell, in output order
SEARCH_TABLE_CELLS = [
    (3, 2, 3, "..aba.ba.", True),
    (4, 2, 2, "...ab..a", True),
    (5, 2, 2, "....ab..a.", True),
    (6, 2, 2, ".....ab....a", True),
]

VERIFY_SQ_ARGV = ["verify", "theorem-sq", "--k", "2", "--max-len", "11", "--json"]
# the --json report with elapsedSeconds removed
VERIFY_SQ_REPORT = {
    "claim": "theorem-sq",
    "parameters": {"k": 2, "maxLen": 11, "bound": 2},
    "instancesChecked": 132865,
    "outcome": "pass",
    "counterexample": None,
    "findings": {"wordsEnumerated": 265719, "maxSquares": 2, "maxWitness": ".aba"},
}

ANALYZE_ARGV = ["analyze", "--stdin", "--r", "2", "--json"]
ANALYZE_WORDS = 300
ANALYZE_MIN_LEN = 16
ANALYZE_MAX_LEN = 200
ANALYZE_LETTERS = "abc"
ANALYZE_HOLE_SHARE = 0.3

NAMES = ("search-table", "verify-sq", "analyze-batch")


@dataclass(frozen=True)
class Case:
    """One workload instance: what to run and how to judge its stdout."""

    name: str
    argv: list
    stdin: Optional[str]
    check: Callable[[str], Optional[str]]  # stdout -> None, or why it is wrong


def analyze_words(seed: int) -> list:
    """The analyze-batch input for a seed.

    Lengths are spread evenly over 16..200 and shuffled, so every seed asks
    for the same total work; letters and holes are drawn at random.
    """
    rng = random.Random(seed)
    span = ANALYZE_MAX_LEN - ANALYZE_MIN_LEN + 1
    lengths = [ANALYZE_MIN_LEN + i * span // ANALYZE_WORDS for i in range(ANALYZE_WORDS)]
    rng.shuffle(lengths)
    return [
        "".join(
            "." if rng.random() < ANALYZE_HOLE_SHARE else rng.choice(ANALYZE_LETTERS)
            for _ in range(n)
        )
        for n in lengths
    ]


def square_occurrences(text: str) -> list:
    """1-indexed (start, length) of every square in a partial word written
    with '.' holes, sorted.

    One sweep per root length p: a window is a square iff no two defined,
    disagreeing symbols of one residue class mod p that are consecutive in
    that class both lie inside it.
    """
    n = len(text)
    found = []
    for p in range(1, n // 2 + 1):
        length = 2 * p
        barrier = -1
        last = [-1] * p
        for end, ch in enumerate(text):
            if ch != ".":
                c = end % p
                prev = last[c]
                if prev >= 0 and text[prev] != ch and prev > barrier:
                    barrier = prev
                last[c] = end
            start = end - length + 1
            if start > barrier and start >= 0:
                found.append((start + 1, length))
    found.sort()
    return found


def analyze_expected(words: list) -> str:
    """The stdout `analyze --stdin --r 2 --json` must print for `words`."""
    docs = []
    for text in words:
        occs = square_occurrences(text)
        starts = sorted({s for s, _ in occs})
        docs.append({
            "word": text,
            "r": 2,
            "occurrences": [{"start": s, "length": length} for s, length in occs],
            "startPositions": starts,
            "uniqueStart": starts[0] if len(starts) == 1 else None,
        })
    return json.dumps(docs, indent=2) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_or_none(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _search_table_case(corrupt: bool) -> Case:
    expected = [list(cell) for cell in SEARCH_TABLE_CELLS]
    if corrupt:
        expected[0][2] += 1

    def check(stdout: str) -> Optional[str]:
        rows = _json_or_none(stdout)
        if not isinstance(rows, list):
            return "stdout is not a JSON list"
        got = [
            [row.get("r"), row.get("k"), row.get("bestCount"), row.get("witness"),
             row.get("exhaustive")]
            for row in rows
        ]
        return None if got == expected else f"cells {got} != expected {expected}"

    return Case("search-table", SEARCH_TABLE_ARGV, None, check)


def _verify_sq_case(corrupt: bool) -> Case:
    expected = json.loads(json.dumps(VERIFY_SQ_REPORT))
    if corrupt:
        expected["instancesChecked"] += 1

    def check(stdout: str) -> Optional[str]:
        doc = _json_or_none(stdout)
        if not isinstance(doc, dict) or "elapsedSeconds" not in doc:
            return "stdout is not a verification report"
        doc.pop("elapsedSeconds")
        return None if doc == expected else f"report {doc} != expected {expected}"

    return Case("verify-sq", VERIFY_SQ_ARGV, None, check)


def _analyze_case(seed: int, corrupt: bool) -> Case:
    words = analyze_words(seed)
    expected_words = list(words)
    if corrupt:
        # the oracle then expects a different first word, and so other squares
        first = expected_words[0]
        expected_words[0] = ("a" if first[0] != "a" else "b") + first[1:]
    want = _digest(analyze_expected(expected_words))

    def check(stdout: str) -> Optional[str]:
        got = _digest(stdout)
        return None if got == want else f"stdout sha256 {got} != expected {want}"

    return Case("analyze-batch", ANALYZE_ARGV, "\n".join(words) + "\n", check)


def make_case(name: str, seed: int, corrupt: bool = False) -> Case:
    """The workload `name` for `seed`; `corrupt` deliberately breaks one
    expected value so that the check can be seen to fail."""
    if name == "search-table":
        return _search_table_case(corrupt)
    if name == "verify-sq":
        return _verify_sq_case(corrupt)
    if name == "analyze-batch":
        return _analyze_case(seed, corrupt)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
