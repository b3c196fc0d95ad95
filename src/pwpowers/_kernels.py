"""JIT-compiled inner loops for power detection, theorem checking, and search.

Every @compile_kernel function is plain Python over numpy arrays, compiled
by one rule (numba njit, cached) when numba is importable and the
PWPOWERS_NO_NUMBA environment variable is unset. Without numba the same
functions run interpreted: identical results, much slower. No kernel has to
release the interpreter lock, as `search --jobs` runs partitions in worker
processes. Symbol encoding throughout: 0 is the hole, 1..k are letters.
Positions inside kernels are 0-indexed; the public wrappers shift to the
1-indexed convention.

Both occurrence scans, `occurrence_scan` and the per-append scan inside
`search_kernel`, use one rule. A break pair for root length p is two
consecutive defined symbols of one residue class mod p that disagree, and a
window of length r*p is an r-th power iff it contains no break pair. The
scan sweeps starts right to left, keeping for each p the nearest break pair
to the right; the search keeps, per depth, the rightmost one to the left.
Either way the cost per window is O(1) plus a walk over holes, where the
residue-class predicate `is_power_at` (kept for the theorem-sq tree walk)
costs O(window length). Both kernels copy their input into plain int lists
built inside the function: interpreted, list indexing is several times
cheaper than reading numpy int8 scalars, and numba compiles such lists too.
The independent check of both, by explicit root construction, lives in
tests/helpers.py.

The fine-wilf and corollary-full kernels enumerate words length first, then
lexicographic by symbol code (hole < a < b < ...), via a plain odometer on
the code array. The theorem-sq and lemma-h1 kernels report in that same
order but walk only the start-bounded tree, uncompiled, and count the rest
of the space in closed form (see their section). Canonical representatives
are words whose letters first appear in alphabetical order; predicates
checked here are invariant under letter renaming, so skipping non-canonical
words loses nothing.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("PWPOWERS_NO_NUMBA", "").strip().lower() not in ("1", "true", "yes")
if NUMBA_ENABLED:
    try:
        import numba
    except ImportError:
        NUMBA_ENABLED = False

compile_kernel = numba.njit(cache=True) if NUMBA_ENABLED else (lambda func: func)


def occurrence_capacity(n: int, r: int) -> int:
    """Upper bound on the number of r-th power occurrences in a length-n word."""
    return (n // r) * n + 1


@compile_kernel
def is_power_at(word, start, length, r):
    # window [start, start+length) contained in x^r for some full x of
    # length p = length // r  <=>  in each residue class mod p the defined
    # symbols all agree; `last` tracks the class's previous defined symbol
    p = length // r
    for c in range(p):
        last = 0
        idx = start + c
        while idx < start + length:
            s = word[idx]
            if s != 0:
                if last != 0 and s != last:
                    return False
                last = s
            idx += p
    return True


@compile_kernel
def occurrence_scan(word, r, out):
    # sweep starts right to left; reach[p] is the right end of the nearest
    # break pair (consecutive defined symbols of one class mod p that
    # disagree) whose left end is at or after `start`, or n when there is
    # none, so window (start, r*p) is a power iff reach[p] >= start + r*p.
    # Rows are written from the end of `out`, each start's lengths in
    # descending order, then moved to the front: (start, length) order,
    # which power_occurrences and the verifiers rely on.
    n = word.shape[0]
    w = [0] * n
    for i in range(n):
        w[i] = int(word[i])
    pmax = n // r
    reach = [n] * (pmax + 1)
    top = out.shape[0]
    pos = top
    for start in range(n - 1, -1, -1):
        s = w[start]
        if s != 0:
            for p in range(1, min(pmax, n - 1 - start) + 1):
                j = start + p
                while j < n and w[j] == 0:
                    j += p
                if j < reach[p] and w[j] != s:
                    reach[p] = j
        for p in range((n - start) // r, 0, -1):
            if reach[p] >= start + r * p:
                pos -= 1
                out[pos, 0] = start
                out[pos, 1] = r * p
    cnt = top - pos
    for i in range(cnt):
        out[i, 0] = out[pos + i, 0]
        out[i, 1] = out[pos + i, 1]
    return cnt


# ---------------------------------------------------------------------------
# verifier kernels
#
# Shared return convention: (status, checked, enumerated, ...). Status 0 =
# claim holds on the whole space, 1 = counterexample found, 2 = budget
# exhausted. `checked` counts canonical words actually tested, `enumerated`
# counts every word the odometer produced (canonical or not); the budget
# caps `enumerated`. The compiled odometer kernels copy a counterexample into
# the caller's `cex` buffer and return its length; the start-bounded kernels
# return it as a code tuple.
# ---------------------------------------------------------------------------


@compile_kernel
def _is_canonical_codes(w):
    mu = 0
    for i in range(w.shape[0]):
        s = w[i]
        if s > mu + 1:
            return False
        if s == mu + 1:
            mu = s
    return True


def _budget_reach(symbols, max_len, budget):
    # longest length, at most max_len, whose first word an odometer over
    # `symbols` symbols per position (length first, then lexicographic)
    # produces within `budget` words; 0 when the budget is below 1
    length = produced = 0  # produced: the words of length 1..length
    while length < max_len and produced < budget:
        length += 1
        produced += symbols**length
    return length


@compile_kernel
def _next_full_word(w, k):
    # advance the odometer over letters 1..k by one word of the same
    # length; False, with w back at all 1s, after the last one
    j = w.shape[0] - 1
    while j >= 0:
        if w[j] < k:
            w[j] += 1
            return True
        w[j] = 1
        j -= 1
    return False


@compile_kernel
def fine_wilf_kernel(k, max_len, budget, cex):
    # full words; if p and q are both strong periods and the word is long
    # enough (|w| >= p + q - gcd(p,q)), gcd(p,q) must be a strong period too
    checked = 0
    enumerated = 0
    for n in range(1, max_len + 1):
        w = np.ones(n, np.int8)
        while True:
            enumerated += 1
            if enumerated > budget:
                return 2, checked, enumerated, 0, 0, 0
            if _is_canonical_codes(w):
                checked += 1
                mask = 0
                for p in range(1, n + 1):
                    periodic = True
                    for i in range(n - p):
                        if w[i] != w[i + p]:
                            periodic = False
                            break
                    if periodic:
                        mask |= 1 << (p - 1)
                for p in range(1, n + 1):
                    if mask & (1 << (p - 1)) == 0:
                        continue
                    for q in range(p, n + 1):
                        if mask & (1 << (q - 1)) == 0:
                            continue
                        a = p
                        b = q
                        while b:
                            a, b = b, a % b
                        if n >= p + q - a and mask & (1 << (a - 1)) == 0:
                            cex[:n] = w
                            return 1, checked, enumerated, n, p, q
            if not _next_full_word(w, k):
                break
    return 0, checked, enumerated, 0, 0, 0


@compile_kernel
def corollary_full_kernel(r, k, max_len, budget, cex):
    # full words: whenever some position starts two or more r-th power
    # occurrences, a strictly later position must start one as well.
    # Occurrences are sorted by start, so only the last start can violate,
    # and it does when the last two rows share it.
    checked = 0
    enumerated = 0
    for n in range(1, max_len + 1):
        w = np.ones(n, np.int8)
        out = np.empty(((n // r) * n + 1, 2), np.int32)
        while True:
            enumerated += 1
            if enumerated > budget:
                return 2, checked, enumerated, 0
            if _is_canonical_codes(w):
                checked += 1
                cnt = occurrence_scan(w, r, out)
                if cnt >= 2 and out[cnt - 2, 0] == out[cnt - 1, 0]:
                    cex[:n] = w
                    return 1, checked, enumerated, n
            if not _next_full_word(w, k):
                break
    return 0, checked, enumerated, 0


# ---------------------------------------------------------------------------
# start-bounded verifiers (theorem-sq, lemma-h1)
#
# Both claims constrain only words whose squares all start at one position.
# Appending a symbol never removes an occurrence, so that premise is closed
# under prefixes, and every premise word lies in the tree of canonical words
# with at most one square start. Only that tree is walked. The counts of the
# odometer order (every word of length 1..max_len over holes and k letters,
# length first, then lexicographic) are computed in closed form instead, so
# the return convention above holds unchanged: `enumerated` is the odometer
# position of the counterexample, `checked` its rank among canonical words,
# and the budget stops the run exactly where the odometer would have.
# ---------------------------------------------------------------------------


def _start_bounded_words(k, max_len):
    # (codes, squares) for every canonical word of length 1..max_len that
    # has squares, all starting at one position, in length-then-lex order;
    # each append tests only the windows that end at the new symbol
    level = [((), 0, -1, 0)]  # codes, largest letter, square start, squares
    for m in range(1, max_len + 1):
        children = []
        for codes, mu, start, squares in level:
            for s in range(min(mu + 1, k) + 1):
                child = codes + (s,)
                word = np.array(child, np.int8)
                new = [i for i in range(m - 2, -1, -2) if is_power_at(word, i, m - i, 2)]
                first = start if start >= 0 else (new[0] if new else -1)
                if all(i == first for i in new):
                    children.append((child, max(mu, s), first, squares + len(new)))
                    if first >= 0:
                        yield child, squares + len(new)
        level = children


def _position(codes, k):
    # 1-based odometer position of `codes`: the word read as a bijective
    # base-(k+1) numeral with digits c+1, which puts shorter words first
    position = 0
    for c in codes:
        position = position * (k + 1) + c + 1
    return position


def _codes_at(position, k):
    # inverse of _position
    codes = []
    while position > 0:
        position, c = divmod(position - 1, k + 1)
        codes.append(c)
    return tuple(reversed(codes))


def _canonical_table(k, max_len):
    # f[j][mu]: canonical continuations by j symbols of a prefix whose
    # largest letter is mu; holes and letters 1..mu keep mu, letter mu+1
    # raises it
    f = [[1] * (k + 1)]
    for _ in range(max_len):
        g = f[-1]
        f.append([(mu + 1) * g[mu] + (g[mu + 1] if mu < k else 0) for mu in range(k + 1)])
    return f


def _canonical_rank(codes, f):
    # canonical words up to `codes` in length-then-lex order, `codes`
    # itself included when it is canonical
    m = len(codes)
    rank = sum(f[j][0] for j in range(1, m))
    mu = 0
    for i, c in enumerate(codes):
        rank += sum(f[m - i - 1][max(mu, s)] for s in range(min(c, mu + 2)))
        if c > mu + 1:
            return rank
        mu = max(mu, c)
    return rank + 1


def _decide_start_bounded(k, max_len, budget, violates):
    # shared body of the two kernels below; returns (status, checked,
    # enumerated, counterexample codes or None, best, witness codes or None),
    # best being the largest square count of a premise word before the stop.
    # A run stops at the first premise word past the budget, so the walk
    # never goes beyond the longest length whose first word (all holes) the
    # budget reaches.
    walk_len = _budget_reach(k + 1, max_len, budget)
    f = _canonical_table(k, walk_len)
    best, witness = 0, None
    for codes, squares in _start_bounded_words(k, walk_len):
        position = _position(codes, k)
        if position > budget:
            break
        if violates(codes, squares):
            return 1, _canonical_rank(codes, f), position, codes, best, witness
        if squares > best:
            best, witness = squares, codes
    last = (k,) * walk_len
    if walk_len == max_len and _position(last, k) <= budget:
        return 0, _canonical_rank(last, f), _position(last, k), None, best, witness
    checked = _canonical_rank(_codes_at(budget, k), f) if budget >= 1 else 0
    return 2, checked, max(budget + 1, 1), None, best, witness


def lemma_h1_kernel(k, max_len, budget):
    # words with two or more squares all starting at the same position must
    # have exactly one hole, located at position 1
    return _decide_start_bounded(
        k, max_len, budget,
        lambda codes, squares: squares > 1 and (codes[0] != 0 or codes.count(0) != 1),
    )


def theorem_sq_kernel(k, max_len, bound, budget):
    # words whose squares all start at one position carry at most `bound`
    # of them
    return _decide_start_bounded(
        k, max_len, budget, lambda codes, squares: squares > bound
    )


# ---------------------------------------------------------------------------
# search kernel
# ---------------------------------------------------------------------------


@compile_kernel
def _word_less_than_row(word, m, wit_buf, wit_lens, j):
    # (length, lex) order; symbol codes already sort hole < a < b < ...
    jl = wit_lens[j]
    if m != jl:
        return m < jl
    for i in range(m):
        if word[i] != wit_buf[j, i]:
            return word[i] < wit_buf[j, i]
    return False


@compile_kernel
def _insert_witness(word, m, wit_buf, wit_lens, n_wit, wcap):
    # rows are sorted, so a full list takes nothing at or past its last row
    if n_wit == wcap and not _word_less_than_row(word, m, wit_buf, wit_lens, wcap - 1):
        return n_wit
    pos = n_wit
    for j in range(n_wit):
        if _word_less_than_row(word, m, wit_buf, wit_lens, j):
            pos = j
            break
    if pos >= wcap:
        return n_wit
    j = n_wit if n_wit < wcap else wcap - 1
    while j > pos:
        wit_lens[j] = wit_lens[j - 1]
        for i in range(wit_lens[j]):
            wit_buf[j, i] = wit_buf[j - 1, i]
        j -= 1
    wit_lens[pos] = m
    for i in range(m):
        wit_buf[pos, i] = word[i]
    return n_wit + 1 if n_wit < wcap else wcap


@compile_kernel
def _append(w, m, r, pmax, bar, base, marked_at):
    # score w[m-1], just written: extend the barrier to row m and mark the
    # starts of the new occurrences (windows ending at m) with depth m.
    # bar[base[m] + p] is the largest left end of a break pair for root
    # length p in w[:m], or -1; a row holds p = 0..min(pmax, m), and since
    # no pair fits in fewer than p + 1 symbols, entry p = m stays -1.
    # Returns (occurrences added, starts added).
    if len(base) == m:
        base.append(len(bar))
        for _ in range(min(pmax, m) + 1):
            bar.append(-1)
    s = w[m - 1]
    prev = base[m - 1]
    row = base[m]
    occ = 0
    starts = 0
    hi = m - 1 if m <= pmax else pmax
    for p in range(1, hi + 1):
        b = bar[prev + p]
        if s != 0:
            j = m - 1 - p
            while j > b and w[j] == 0:
                j -= p
            if j > b and w[j] != s:
                b = j
        bar[row + p] = b
        i = m - r * p
        if b < i:
            occ += 1
            if marked_at[i] == 0:
                marked_at[i] = m
                starts += 1
    return occ, starts


@compile_kernel
def _unmark(marked_at, m, r):
    # forget the starts first marked at depth m; they all end windows at m
    i = m - r
    while i >= 0:
        if marked_at[i] == m:
            marked_at[i] = 0
        i -= r


@compile_kernel
def search_kernel(prefix, max_len, k, r, t, node_budget, wcap, wit_buf, wit_lens, frontier):
    """Depth-first search over canonical extensions of `prefix`.

    Scores every strict extension (the prefix node itself belongs to the
    caller), maintaining occurrence and start-position counts incrementally
    and cutting any branch whose distinct power starts already exceed t
    (appending symbols never removes an occurrence, so the cut is sound).
    Qualifying nodes of length max_len are copied, in visiting (lex) order,
    into the rows of `frontier` while rows remain; the search's prefix
    survey reads its partitions from there, and partition calls pass a
    buffer with zero rows.
    Returns (status, nodes, pruned_symmetry, pruned_start_bound, best, n_wit,
    n_frontier) where status 0 means the subtree was exhausted and 2 means
    the node budget ran out. best is -1 when no extension qualified.
    """
    n = max_len
    pmax = n // r
    d0 = prefix.shape[0]
    # no node lies deeper than the prefix plus one symbol per node of budget
    deep = min(n, d0 + node_budget + 1)
    w = [0] * (deep + 1)
    marked_at = [0] * (deep + 1)  # depth at which a start was first marked, or 0
    max_used = [0] * (deep + 2)
    occ = [0] * (deep + 2)
    nstarts = [0] * (deep + 2)
    trial = [0] * (deep + 2)
    bar = [-1]  # barrier row 0: the empty word has no break pair
    base = [0]

    for m in range(1, d0 + 1):
        s = int(prefix[m - 1])
        w[m - 1] = s
        max_used[m] = s if s > max_used[m - 1] else max_used[m - 1]
        added, new_starts = _append(w, m, r, pmax, bar, base, marked_at)
        occ[m] = occ[m - 1] + added
        nstarts[m] = nstarts[m - 1] + new_starts

    best = -1
    n_wit = 0
    front_rows = frontier.shape[0]
    n_front = 0
    nodes = 0
    pruned_sym = 0
    pruned_start = 0
    status = 0

    if d0 < n:
        # the prefix's own children are enumerated here, so the letters its
        # canonicality cap skips are accounted here as well
        if max_used[d0] < k:
            pruned_sym += k - max_used[d0] - 1

    d = d0
    trial[d] = 0
    while True:
        advanced = False
        if d < n:
            s = trial[d]
            mu = max_used[d]
            if s <= mu + 1 and s <= k:
                advanced = True
                if nodes >= node_budget:
                    status = 2
                    break
                w[d] = s
                m = d + 1
                if s > mu:
                    mu = s
                max_used[m] = mu
                added, new_starts = _append(w, m, r, pmax, bar, base, marked_at)
                occ[m] = occ[d] + added
                nstarts[m] = nstarts[d] + new_starts
                nodes += 1
                if nstarts[m] > t:
                    pruned_start += 1
                    if new_starts:
                        _unmark(marked_at, m, r)
                    trial[d] += 1
                else:
                    c = occ[m]
                    if c > best:
                        best = c
                        n_wit = 0
                        n_wit = _insert_witness(w, m, wit_buf, wit_lens, n_wit, wcap)
                    elif c == best:
                        n_wit = _insert_witness(w, m, wit_buf, wit_lens, n_wit, wcap)
                    if m < n:
                        if mu < k:
                            pruned_sym += k - mu - 1
                        d = m
                        trial[d] = 0
                    else:
                        if n_front < front_rows:
                            for i in range(m):
                                frontier[n_front, i] = w[i]
                            n_front += 1
                        if new_starts:
                            _unmark(marked_at, m, r)
                        trial[d] += 1
        if not advanced:
            if d == d0:
                break
            if nstarts[d] != nstarts[d - 1]:
                _unmark(marked_at, d, r)
            d -= 1
            trial[d] += 1
    return status, nodes, pruned_sym, pruned_start, best, n_wit, n_front
