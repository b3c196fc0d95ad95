"""Shared pure-Python oracles and exhaustive law checks.

Everything here recomputes results from the definitions, as independently of
the package's optimized paths as practical: power membership by literally
trying every candidate full root, periods straight from the defining
quantifier, and so on. Tests freeze expected values by comparing the package
against these.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from pwpowers import (
    Alphabet,
    InvalidCharacterError,
    LetterOutsideAlphabetError,
    PartialWord,
    format_word,
    parse_word,
    power_occurrences,
)


def word(text: str, k: int | None = None) -> PartialWord:
    return parse_word(text, Alphabet(k) if k is not None else None)


def parse_word_by_chars(text: str, alphabet: Alphabet | None = None) -> PartialWord:
    """Reference for parse_word: one character at a time, raising at the
    first character that is neither a hole ('.' or '◊') nor a letter a-z,
    or is a letter outside `alphabet`; with no alphabet, the largest letter
    present (at least a) sets its size."""
    codes = []
    for position, ch in enumerate(text, start=1):
        if ch in ".◊":
            codes.append(0)
        elif "a" <= ch <= "z":
            code = ord(ch) - ord("a") + 1
            if alphabet is not None and code > alphabet.size:
                raise LetterOutsideAlphabetError(position, ch, alphabet.size)
            codes.append(code)
        else:
            raise InvalidCharacterError(position, ch)
    if alphabet is None:
        alphabet = Alphabet(max((c for c in codes if c), default=1))
    return PartialWord(codes, alphabet)


def to_word(codes: Iterable[int], k: int) -> PartialWord:
    return PartialWord(list(codes), Alphabet(k))


def codes_product(length: int, k: int, holes: bool = True) -> Iterator[tuple[int, ...]]:
    lo = 0 if holes else 1
    return itertools.product(range(lo, k + 1), repeat=length)


def all_code_tuples(max_len: int, k: int, holes: bool = True) -> Iterator[tuple[int, ...]]:
    """Every code tuple of length 0..max_len in length-then-lex order."""
    for n in range(max_len + 1):
        yield from codes_product(n, k, holes)


def brute_is_power(codes: tuple[int, ...], k: int, r: int) -> bool:
    """Literal definition: some full x with the word contained in x^r."""
    n = len(codes)
    if n == 0 or n % r != 0:
        return False
    p = n // r
    for x in itertools.product(range(1, k + 1), repeat=p):
        if all(c == 0 or c == x[i % p] for i, c in enumerate(codes)):
            return True
    return False


def brute_occurrences(codes: tuple[int, ...], k: int, r: int) -> list[tuple[int, int]]:
    """All (start, length) occurrence pairs, 0-indexed starts, via the
    literal root check on every window."""
    n = len(codes)
    found = []
    for i in range(n):
        for length in range(r, n - i + 1, r):
            if brute_is_power(codes[i : i + length], k, r):
                found.append((i, length))
    return found


def brute_strong_periods(codes: tuple[int, ...]) -> list[int]:
    """Periods from the defining quantifier over position pairs."""
    n = len(codes)
    periods = []
    for p in range(1, n + 1):
        ok = True
        for i in range(n):
            for j in range(i + p, n, p):
                if codes[i] != 0 and codes[j] != 0 and codes[i] != codes[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            periods.append(p)
    return periods


def is_canonical_codes(codes: tuple[int, ...]) -> bool:
    mu = 0
    for c in codes:
        if c > mu + 1:
            return False
        if c == mu + 1:
            mu = c
    return True


def canonicalize_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    mapping: dict[int, int] = {}
    out = []
    for c in codes:
        if c == 0:
            out.append(0)
            continue
        if c not in mapping:
            mapping[c] = len(mapping) + 1
        out.append(mapping[c])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _brute_power_stats(codes: tuple[int, ...], k: int, r: int) -> tuple[int, int, int, int]:
    """(r-th power count, distinct starts, first start, occurrences at the
    last start) by the literal root check."""
    occs = brute_occurrences(codes, k, r)
    starts = sorted({s for s, _ in occs})
    if not starts:
        return 0, 0, -1, 0
    return len(occs), len(starts), starts[0], sum(s == starts[-1] for s, _ in occs)


def odometer_reference(k: int, max_len: int, budget: int, bound: int | None = None,
                       r: int = 2, full: bool = False, refuted=frozenset()):
    """Reference for the start-bounded verifiers: theorem-sq (`bound`
    given), lemma-h1 (`bound` None) and, with `full`, corollary-full on
    r-th powers. Walk every word of length 1..max_len over k letters, and
    holes unless `full`, in length-then-lex order, count each word produced
    against the budget before looking at it, and test only the canonical
    ones. corollary-full is tested on every full word as stated: the last
    power start must carry a single occurrence. A word in `refuted` whose
    powers all start at one position is refuted too.

    Returns (status, checked, enumerated, counterexample, best, witness):
    status 0 pass, 1 counterexample, 2 budget exceeded; counterexample and
    witness are code tuples or None; best and witness track the largest
    power count of a word whose powers all start at one position, seen
    before the stop, and the first word attaining it.
    """
    checked = enumerated = best = 0
    witness = None
    for codes in all_code_tuples(max_len, k, holes=not full):
        if not codes:
            continue
        enumerated += 1
        if enumerated > budget:
            return 2, checked, enumerated, None, best, witness
        if not is_canonical_codes(codes):
            continue
        checked += 1
        powers, starts, _, at_last = _brute_power_stats(codes, k, r)
        if full:
            violates = at_last > 1
        elif bound is None:
            violates = starts == 1 and powers > 1 and (codes[0] != 0 or codes.count(0) != 1)
        else:
            violates = starts == 1 and powers > bound
        if violates or (starts == 1 and codes in refuted):
            return 1, checked, enumerated, codes, best, witness
        if starts == 1 and powers > best:
            best, witness = powers, codes
    return 0, checked, enumerated, None, best, witness


def fine_wilf_reference(k: int, max_len: int, budget: int, refuted=frozenset()):
    """Reference for the fine-wilf kernel: walk every full word of length
    1..max_len over k letters in length-then-lex order, count each word
    produced against the budget before looking at it, and test the
    canonical ones on every pair p <= q of their strong periods, from the
    defining quantifier; a canonical word in `refuted` is refuted too.
    Returns the kernel's tuple (status, checked, enumerated,
    counterexample, 0, None); full words track no power count.
    """
    checked = enumerated = 0
    for codes in all_code_tuples(max_len, k, holes=False):
        if not codes:
            continue
        enumerated += 1
        if enumerated > budget:
            return 2, checked, enumerated, None, 0, None
        if not is_canonical_codes(codes):
            continue
        checked += 1
        if codes in refuted:
            return 1, checked, enumerated, codes, 0, None
        periods = brute_strong_periods(codes)
        for p, q in itertools.combinations_with_replacement(periods, 2):
            g = math.gcd(p, q)
            if len(codes) >= p + q - g and g not in periods:
                return 1, checked, enumerated, codes, 0, None
    return 0, checked, enumerated, None, 0, None


def expected_verify_report(k: int, max_len: int, budget: int, bound: int | None = None):
    """The JSON report (without elapsedSeconds) that verify_theorem_sq_bound
    (`bound` given) or verify_lemma_h1 (`bound` None) must return, or the
    budget error text it must raise, according to odometer_reference."""
    claim = "lemma-h1" if bound is None else "theorem-sq"
    status, checked, enumerated, cex, best, witness = odometer_reference(
        k, max_len, budget, bound
    )
    if status == 2:
        return (f"{claim}: enumeration exceeded the check budget "
                f"({enumerated} words produced, budget {budget})")
    counterexample = None
    if cex is not None:
        squares, _, start, _ = _brute_power_stats(cex, k, 2)
        if bound is None:
            context = {
                "squares": squares,
                "startPositions": [start + 1],
                "holes": [i + 1 for i, c in enumerate(cex) if c == 0],
            }
        else:
            context = {"squares": squares, "bound": bound}
        counterexample = {"word": format_word(to_word(cex, k)), "context": context}
    findings = {"wordsEnumerated": enumerated}
    parameters = {"k": k, "maxLen": max_len}
    if bound is not None:
        parameters["bound"] = bound
        findings["maxSquares"] = best
        if witness is not None:
            findings["maxWitness"] = format_word(to_word(witness, k))
    return {
        "claim": claim,
        "parameters": parameters,
        "instancesChecked": checked,
        "outcome": "pass" if status == 0 else "fail",
        "counterexample": counterexample,
        "findings": findings,
    }


def occ_pairs(w: PartialWord, r: int) -> list[tuple[int, int]]:
    return [(o.start, o.length) for o in power_occurrences(w, r)]


def brute_search(r: int, k: int, max_len: int, t: int, cap: int = 16):
    """Reference for search_max_powers on tiny spaces: enumerate every word
    (canonical or not) for the best count, then collect canonical witnesses
    in shortest-then-lex order."""
    best = 0
    for codes in all_code_tuples(max_len, k):
        occs = brute_occurrences(codes, k, r)
        if len({s for s, _ in occs}) <= t and len(occs) > best:
            best = len(occs)
    wits = []
    for codes in all_code_tuples(max_len, k):
        if not is_canonical_codes(codes):
            continue
        occs = brute_occurrences(codes, k, r)
        if len({s for s, _ in occs}) <= t and len(occs) == best:
            wits.append(codes)
    wits.sort(key=lambda c: (len(c), c))
    return best, wits[:cap]


def search_kernel_reference(prefix, max_len: int, k: int, r: int, t: int,
                            node_budget: int, wcap: int, survey: bool):
    """Reference for `_kernels.search_kernel`, with its arguments and its
    result (status, nodes, pruned_sym, pruned_start, best, witnesses,
    frontier). Walk the canonical strict extensions of `prefix` in
    depth-first preorder, children in symbol order, scoring each node from
    scratch by the literal root check. Each node visited costs one node of
    budget, and the walk stops with status 2 at the first node the budget
    cannot pay for. A node with more than t starts is counted as pruned and
    not extended; every other node is scored, and one shorter than max_len
    is extended and counts the letters its canonicality cap skips (so does
    the prefix). best is -1 when no node is scored, the witnesses are the
    first wcap scored nodes attaining it in (length, lex) order, and with
    `survey` the frontier lists the scored nodes of length max_len in
    visiting order."""

    def children(codes):
        mu = max(codes, default=0)
        return [codes + (s,) for s in range(min(mu + 1, k) + 1)]

    def skipped(codes):
        return max(k - max(codes, default=0) - 1, 0)

    prefix = tuple(prefix)
    status = nodes = pruned_start = 0
    best, ties, frontier = -1, [], []
    pruned_sym = skipped(prefix) if len(prefix) < max_len else 0
    stack = children(prefix)[::-1] if len(prefix) < max_len else []
    while stack:
        codes = stack.pop()
        if nodes >= node_budget:
            status = 2
            break
        nodes += 1
        count, starts, _, _ = _brute_power_stats(codes, k, r)
        if starts > t:
            pruned_start += 1
            continue
        if count > best:
            best, ties = count, []
        if count == best:
            ties.append(codes)
        if len(codes) < max_len:
            pruned_sym += skipped(codes)
            stack += children(codes)[::-1]
        elif survey:
            frontier.append(list(codes))
    witnesses = [list(c) for c in sorted(ties, key=lambda c: (len(c), c))[:wcap]]
    return status, nodes, pruned_sym, pruned_start, best, witnesses, frontier


def unpruned_search(r: int, k: int, max_len: int, t: int, cap: int = 16):
    """Same optimum via plain filtering of every canonical word, with the
    package's occurrence scan but none of the search's pruning."""
    best = 0
    wits: list[tuple[int, ...]] = []
    alphabet = Alphabet(k)
    for codes in all_code_tuples(max_len, k):
        if not is_canonical_codes(codes):
            continue
        occs = occ_pairs(PartialWord(list(codes), alphabet), r)
        if len({s for s, _ in occs}) > t:
            continue
        if len(occs) > best:
            best = len(occs)
            wits = [codes]
        elif len(occs) == best:
            wits.append(codes)
    wits.sort(key=lambda c: (len(c), c))
    return best, wits[:cap]


# ---------------------------------------------------------------------------
# exhaustive law checks; each returns a violation count (0 expected).
# The acceptance suite re-runs these at the module-stated bounds.
# ---------------------------------------------------------------------------


def _contain_matrix(mats: np.ndarray) -> np.ndarray:
    V = mats[:, None, :]
    W = mats[None, :, :]
    return np.all((V == 0) | (V == W), axis=2)


def check_containment_laws(max_len: int, k: int) -> int:
    """Containment is a partial order on words of each fixed length."""
    from pwpowers import is_contained_in

    violations = 0
    for n in range(max_len + 1):
        tuples = list(codes_product(n, k))
        mats = np.array(tuples, dtype=np.int8).reshape(len(tuples), n)
        M = _contain_matrix(mats)
        N = len(tuples)
        violations += int(np.sum(~np.diag(M)))  # reflexivity
        violations += int(np.sum((M & M.T) != np.eye(N, dtype=bool)))  # antisymmetry
        P = (M.astype(np.int32) @ M.astype(np.int32)) > 0
        violations += int(np.sum(P & ~M))  # transitivity
        # the API agrees with the matrix on every pair
        alphabet = Alphabet(k)
        words = [PartialWord(list(c), alphabet) for c in tuples]
        for i in range(N):
            for j in range(N):
                if is_contained_in(words[i], words[j]) != bool(M[i, j]):
                    violations += 1
    return violations


def check_join_laws(max_len: int, k: int) -> int:
    """Compatibility is symmetric; join exists iff compatible, is an upper
    bound, and is the least one."""
    from pwpowers import IncompatibleError, is_compatible, join

    violations = 0
    for n in range(max_len + 1):
        tuples = list(codes_product(n, k))
        mats = np.array(tuples, dtype=np.int8).reshape(len(tuples), n)
        M = _contain_matrix(mats)
        N = len(tuples)
        index = {t: i for i, t in enumerate(tuples)}
        alphabet = Alphabet(k)
        words = [PartialWord(list(c), alphabet) for c in tuples]
        for i in range(N):
            for j in range(N):
                compat = bool(np.all((mats[i] == 0) | (mats[j] == 0) | (mats[i] == mats[j])))
                if is_compatible(words[i], words[j]) != compat:
                    violations += 1
                if is_compatible(words[j], words[i]) != compat:
                    violations += 1  # symmetry via the API
                if not compat:
                    try:
                        join(words[i], words[j])
                        violations += 1
                    except IncompatibleError:
                        pass
                    continue
                joined = join(words[i], words[j])
                jt = tuple(int(c) for c in joined.codes)
                expected = tuple(int(a) if a else int(b) for a, b in zip(tuples[i], tuples[j]))
                if jt != expected:
                    violations += 1
                ji = index[jt]
                if not (M[i, ji] and M[j, ji]):
                    violations += 1  # upper bound
                # least: any common upper bound w also sits above the join
                violations += int(np.sum(M[i] & M[j] & ~M[ji]))
    return violations


def check_permutation_invariance(max_len: int, max_k: int, rs=(2, 3)) -> int:
    """Occurrence sets are unchanged by renaming letters."""
    violations = 0
    for k in range(1, max_k + 1):
        alphabet = Alphabet(k)
        for perm in itertools.permutations(range(1, k + 1)):
            mapping = (0,) + perm
            for codes in all_code_tuples(max_len, k):
                permuted = tuple(mapping[c] for c in codes)
                w = PartialWord(list(codes), alphabet)
                pw = PartialWord(list(permuted), alphabet)
                for r in rs:
                    if occ_pairs(w, r) != occ_pairs(pw, r):
                        violations += 1
    return violations


def check_extension_monotonicity(max_len: int, k: int, r: int = 2) -> int:
    """Appending a symbol never removes an occurrence."""
    violations = 0
    alphabet = Alphabet(k)
    for codes in all_code_tuples(max_len, k):
        base = set(occ_pairs(PartialWord(list(codes), alphabet), r))
        for s in range(k + 1):
            ext = set(occ_pairs(PartialWord(list(codes + (s,)), alphabet), r))
            if not base <= ext:
                violations += 1
    return violations


def check_canonicalize_laws(max_len: int, max_k: int, r: int = 2) -> int:
    """canonicalize is idempotent, permutation-invariant, and preserves the
    occurrence profile."""
    from pwpowers import canonicalize, is_canonical

    violations = 0
    for k in range(1, max_k + 1):
        alphabet = Alphabet(k)
        perms = list(itertools.permutations(range(1, k + 1)))
        for codes in all_code_tuples(max_len, k):
            w = PartialWord(list(codes), alphabet)
            cw = canonicalize(w)
            if not is_canonical(cw):
                violations += 1
            if canonicalize(cw) != cw:
                violations += 1
            if is_canonical_codes(codes) != (cw == w):
                violations += 1
            if occ_pairs(w, r) != occ_pairs(cw, r):
                violations += 1
            for perm in perms:
                mapping = (0,) + perm
                pw = PartialWord([mapping[c] for c in codes], alphabet)
                if canonicalize(pw) != cw:
                    violations += 1
    return violations


def root_exists(w, start, length, k, r):
    # build an explicit full root x of length p by backtracking, letter by
    # letter; x[j] must match every defined symbol at start+j, start+j+p, ...
    # of the int list w. Never consults a residue-class or break-pair
    # predicate.
    p = length // r
    x = [0] * p
    j = 0
    while True:
        found = False
        for letter in range(x[j] + 1, k + 1):
            ok = True
            idx = start + j
            while idx < start + length:
                s = w[idx]
                if s != 0 and s != letter:
                    ok = False
                    break
                idx += p
            if ok:
                x[j] = letter
                found = True
                break
        if found:
            j += 1
            if j == p:
                return True
        else:
            x[j] = 0
            j -= 1
            if j < 0:
                return False


def occurrence_scan_by_roots(word, k, r):
    # (start, length) rows of the occurrence set computed purely through
    # explicit root construction, the independent oracle for
    # _kernels.occurrence_scan; the word is read once into an int list, as
    # the production kernels do
    n = len(word)
    w = list(word)
    rows = []
    for start in range(n):
        length = r
        while start + length <= n:
            if root_exists(w, start, length, k, r):
                rows.append((start, length))
            length += r
    return rows


def class_occurrences(codes, r):
    # (start, length) rows, 0-indexed and in (start, length) order, of the
    # windows whose residue classes mod the root length each hold at most
    # one distinct letter: the definition of an r-th power, read class by
    # class with no pair, break or mask logic. Polynomial in the length, so
    # unlike occurrence_scan_by_roots it reaches long words
    w = list(codes)
    n = len(w)
    rows = []
    for start in range(n):
        for length in range(r, n - start + 1, r):
            p = length // r
            window = w[start : start + length]
            if all(len(set(window[c::p]) - {0}) <= 1 for c in range(p)):
                rows.append((start, length))
    return rows
