"""Inner loops for power detection, theorem checking, and search.

All kernels are plain Python. No kernel has to release the interpreter
lock, as `search --jobs` runs partitions in worker processes. Symbol
encoding throughout: 0 is the hole, 1..k are letters. Positions inside
kernels are 0-indexed; the public wrappers shift to the 1-indexed
convention.

Both occurrence scans, `occurrence_scan` and the per-append scan inside
`search_kernel`, use one rule. A break pair for root length p is two
consecutive defined symbols of one residue class mod p that disagree, and a
window of length r*p is an r-th power iff it contains no break pair. The
scan sweeps starts right to left, keeping for each p the nearest break pair
to the right; the search keeps, per depth, the rightmost one to the left.
Either way the cost per window is O(1) plus a walk over holes. The search
scores the leaves, the children of a node one symbol short of the maximum
length, all in one pass over p from their parent's barrier row: a window
that no break pair of the parent crosses is closed by the hole and by every
letter, or only by the hole and one letter, the nearest one of its class
inside the window. Both kernels work on plain int lists, as list indexing
is cheaper than indexing a byte view. The independent check of both, by
explicit root construction, lives in tests/helpers.py.

The verifier kernels (fine-wilf, theorem-sq, lemma-h1, corollary-full)
report as an odometer over every word would, length first, then
lexicographic by symbol code (hole < a < b < ...), but run none. Each
walks only the words its claim constrains: fine-wilf the canonical full
words, the other three the start-bounded tree, scoring each append with
the search's `_append`. All four count the rest of the space in closed
form (see their section). Canonical representatives are words whose
letters first appear in alphabetical order; predicates checked here are
invariant under letter renaming, so skipping non-canonical words loses
nothing.
"""

import math

# read by perfbench, which reports it as the kernel backend
NUMBA_ENABLED = False


def occurrence_scan(word, r):
    # (start, length) of every r-th power occurrence, 0-indexed.
    # Sweep starts right to left; reach[p] is the right end of the nearest
    # break pair (consecutive defined symbols of one class mod p that
    # disagree) whose left end is at or after `start`, or n when there is
    # none, so window (start, r*p) is a power iff reach[p] >= start + r*p.
    # Rows are appended with starts descending, each start's lengths in
    # descending order, then reversed: (start, length) order, which
    # power_occurrences relies on.
    n = len(word)
    w = list(word)
    pmax = n // r
    reach = [n] * (pmax + 1)
    rows = []
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
                rows.append((start, r * p))
    rows.reverse()
    return rows


# ---------------------------------------------------------------------------
# verifier kernels (fine-wilf, theorem-sq, lemma-h1, corollary-full)
#
# Shared return convention: (status, checked, enumerated, counterexample,
# best, witness). Status 0 = claim holds on the whole space, 1 =
# counterexample found, 2 = budget exhausted. The counts are those of an
# odometer over every word of length 1..max_len over the symbols lo..k,
# length first, then lexicographic (lo is 0 for partial words, whose hole is
# symbol 0, and 1 for full words): `checked` counts the canonical words it
# tests, `enumerated` every word it produces (canonical or not), and the
# budget caps `enumerated`. The counterexample and the witness are code
# tuples or None; best is the largest power count of a premise word before
# the stop (0 for fine-wilf, which counts none), and witness the first word
# attaining it.
#
# No odometer runs. Each claim is decided on a stream of its premise words,
# the canonical words it constrains, in odometer order, and the counts are
# computed in closed form: `enumerated` is the odometer position of the
# counterexample, `checked` its rank among canonical words, and the budget
# stops the run exactly where the odometer would have.
#
# fine-wilf constrains every full word. The other three claims constrain
# only words whose r-th powers all start at one position. theorem-sq and
# lemma-h1 say so of squares in partial words. corollary-full says a full
# word's last power start never carries two occurrences: the suffix of a
# counterexample from its last start is one too, so a shortest
# counterexample has all its powers at position 1, and the first one in
# odometer order is the first such word with two of them. Appending a symbol
# never removes an occurrence, so that premise is closed under prefixes, and
# every premise word lies in the tree of canonical words with at most one
# start. Only that tree is walked, by the t=1 step of the search below
# (`_append`, `_unmark`).
# ---------------------------------------------------------------------------


def _budget_reach(symbols, max_len, budget):
    # longest length, at most max_len, whose first word an odometer over
    # `symbols` symbols per position (length first, then lexicographic)
    # produces within `budget` words; 0 when the budget is below 1
    length = produced = 0  # produced: the words of length 1..length
    while length < max_len and produced < budget:
        length += 1
        produced += symbols**length
    return length


def _canonical_full_words(k, max_len):
    # every canonical full word of length 1..max_len over the letters 1..k,
    # in length-then-lex order, by a depth-first walk that extends only
    # canonical prefixes (mu: the largest letter of the prefix)
    def extend(prefix, mu, n):
        if len(prefix) == n:
            yield prefix
        else:
            for s in range(1, min(mu + 1, k) + 1):
                yield from extend(prefix + (s,), max(mu, s), n)

    for n in range(1, max_len + 1):
        yield from extend((), 0, n)


def _fine_wilf_refutation(codes):
    # the first pair (p, q), p ascending, then q >= p ascending, of strong
    # periods of the full word `codes` with |codes| >= p + q - gcd(p, q)
    # whose gcd is not a period too, or None. A pair with q = p has gcd p,
    # and so has one with q = |codes| that passes the length test (it asks
    # gcd >= p), so only the periods p < q < |codes| need pairing.
    n = len(codes)
    periods = [p for p in range(1, n) if codes[p:] == codes[: n - p]]
    for i, p in enumerate(periods):
        for q in periods[i + 1 :]:
            g = math.gcd(p, q)
            if n >= p + q - g and g not in periods:
                return p, q
    return None


def _start_bounded_words(r, k, lo, max_len):
    # (codes, powers) for every canonical word of length 1..max_len over the
    # symbols lo..k that has r-th powers, all starting at one position, in
    # length-then-lex order. Pass n walks the tree depth first down to
    # length n, scoring each append with _append, so it meets the words of
    # length n in lex order. The tree is closed under prefixes: a pass that
    # reaches no word of its length ends the walk.
    for n in range(1, max_len + 1):
        w, marked_at, bar, base = [0] * n, [0] * n, [-1], [0]
        # per depth m: largest letter, powers and power starts of w[:m],
        # and the next symbol to append to it
        mu, powers, starts, trial = ([0] * (n + 1) for _ in range(4))
        trial[0] = lo
        reached = False
        m = 0  # depth of the current node w[:m]
        while m >= 0:
            s = trial[m]
            if m < n and starts[m] < 2 and s <= min(mu[m] + 1, k):
                trial[m] = s + 1
                w[m] = s
                added, new = _append(w, m + 1, r, n // r, bar, base, marked_at)
                m += 1
                mu[m], trial[m] = max(mu[m - 1], s), lo
                powers[m], starts[m] = powers[m - 1] + added, starts[m - 1] + new
                if m == n and starts[m] < 2:
                    reached = True
                    if starts[m]:
                        yield tuple(w), powers[m]
            else:
                if m and starts[m] != starts[m - 1]:
                    _unmark(marked_at, m, r)
                m -= 1
        if not reached:
            return


def _position(codes, k, lo):
    # 1-based odometer position of `codes` over the symbols lo..k: the word
    # read as a bijective base-(k+1-lo) numeral with digits c+1-lo, which
    # puts shorter words first
    position = 0
    for c in codes:
        position = position * (k + 1 - lo) + c + 1 - lo
    return position


def _codes_at(position, k, lo):
    # inverse of _position
    codes = []
    while position > 0:
        position, c = divmod(position - 1, k + 1 - lo)
        codes.append(c + lo)
    return tuple(reversed(codes))


def _canonical_table(k, max_len, lo):
    # f[j][mu]: canonical continuations by j symbols from lo..k of a prefix
    # whose largest letter is mu; holes (when lo is 0) and letters 1..mu
    # keep mu, letter mu+1 raises it
    f = [[1] * (k + 1)]
    for _ in range(max_len):
        g = f[-1]
        f.append([(mu + 1 - lo) * g[mu] + (g[mu + 1] if mu < k else 0) for mu in range(k + 1)])
    return f


def _canonical_rank(codes, f, lo):
    # canonical words up to `codes` in length-then-lex order, `codes`
    # itself included when it is canonical
    m = len(codes)
    rank = sum(f[j][0] for j in range(1, m))
    mu = 0
    for i, c in enumerate(codes):
        rank += sum(f[m - i - 1][max(mu, s)] for s in range(lo, min(c, mu + 2)))
        if c > mu + 1:
            return rank
        mu = max(mu, c)
    return rank + 1


def _decide_start_bounded(k, lo, max_len, budget, walk, violates):
    # shared body of the four kernels below. walk(n) yields (codes, powers)
    # for the premise words of length 1..n in odometer order, powers being
    # the count that best tracks; violates(codes, powers) tests one of them.
    # A run stops at the first premise word past the budget, so the walk
    # never goes beyond the longest length whose first word the budget
    # reaches.
    # last: the odometer position of the last word of length walk_len;
    # rank_at(p): the canonical words among the first p words
    symbols = k + 1 - lo
    if symbols == 1:
        # unary full words: one word per length, and it is canonical, so a
        # position is its own length and rank, and nothing is sized by it
        walk_len = min(max_len, max(budget, 0))
        last, rank_at = walk_len, lambda position: position
    else:
        walk_len = _budget_reach(symbols, max_len, budget)
        f = _canonical_table(k, walk_len, lo)
        last = _position((k,) * walk_len, k, lo)
        rank_at = lambda position: _canonical_rank(_codes_at(position, k, lo), f, lo)
    best, witness = 0, None
    for codes, powers in walk(walk_len):
        position = _position(codes, k, lo)
        if position > budget:
            break
        if violates(codes, powers):
            return 1, rank_at(position), position, codes, best, witness
        if powers > best:
            best, witness = powers, codes
    if walk_len == max_len and last <= budget:
        return 0, rank_at(last), last, None, best, witness
    return 2, rank_at(budget) if budget >= 1 else 0, max(budget + 1, 1), None, best, witness


def fine_wilf_kernel(k, max_len, budget):
    # full words; if p and q are both strong periods and the word is long
    # enough (|w| >= p + q - gcd(p,q)), gcd(p,q) must be a strong period too.
    # Every canonical full word is a premise word, with no power count
    return _decide_start_bounded(
        k, 1, max_len, budget,
        lambda n: ((codes, 0) for codes in _canonical_full_words(k, n)),
        lambda codes, _: _fine_wilf_refutation(codes) is not None,
    )


def lemma_h1_kernel(k, max_len, budget):
    # words with two or more squares all starting at the same position must
    # have exactly one hole, located at position 1
    return _decide_start_bounded(
        k, 0, max_len, budget, lambda n: _start_bounded_words(2, k, 0, n),
        lambda codes, squares: squares > 1 and (codes[0] != 0 or codes.count(0) != 1),
    )


def theorem_sq_kernel(k, max_len, bound, budget):
    # words whose squares all start at one position carry at most `bound`
    # of them
    return _decide_start_bounded(
        k, 0, max_len, budget, lambda n: _start_bounded_words(2, k, 0, n),
        lambda codes, squares: squares > bound,
    )


def corollary_full_kernel(r, k, max_len, budget):
    # full words: a position starting two or more r-th power occurrences is
    # never the last start, so no word has two occurrences at a unique start
    return _decide_start_bounded(
        k, 1, max_len, budget, lambda n: _start_bounded_words(r, k, 1, n),
        lambda codes, powers: powers > 1,
    )


# ---------------------------------------------------------------------------
# search kernel
# ---------------------------------------------------------------------------


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


def _unmark(marked_at, m, r):
    # forget the starts first marked at depth m; they all end windows at m
    i = m - r
    while i >= 0:
        if marked_at[i] == m:
            marked_at[i] = 0
        i -= r


def search_kernel(prefix, max_len, k, r, t, node_budget, wcap, survey):
    """Depth-first search over canonical extensions of `prefix`.

    Scores every strict extension (the prefix node itself belongs to the
    caller), maintaining occurrence and start-position counts incrementally
    and cutting any branch whose distinct power starts already exceed t
    (appending symbols never removes an occurrence, so the cut is sound).
    Returns (status, nodes, pruned_symmetry, pruned_start_bound, best,
    witnesses, frontier) where status 0 means the subtree was exhausted and
    2 means the node budget ran out. best is -1 when no extension
    qualified; witnesses are the first wcap qualifying nodes scoring best,
    in (length, lex) order, as code lists. When `survey` is set, frontier
    lists the qualifying nodes of length max_len in visiting (lex) order,
    from which the search's prefix survey reads its partitions; otherwise
    it is empty.

    Nodes are visited depth first, children in symbol order, so nodes of
    one length arrive in lex order: a node tying best goes just before the
    first witness longer than it, and a leaf only ever goes last. The
    children of a node at depth max_len - 1 are leaves. They are scored
    together in one pass, with no barrier row and no start marks, and then
    counted, cut or kept one by one as any node is, so a run that spends
    its budget among them stops at the same node as a node-by-node walk.
    """
    n = max_len
    pmax = n // r
    d0 = len(prefix)
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
        s = prefix[m - 1]
        w[m - 1] = s
        max_used[m] = s if s > max_used[m - 1] else max_used[m - 1]
        added, new_starts = _append(w, m, r, pmax, bar, base, marked_at)
        occ[m] = occ[m - 1] + added
        nstarts[m] = nstarts[m - 1] + new_starts

    best = -1
    witnesses = []
    frontier = []
    nodes = 0
    pruned_sym = 0
    pruned_start = 0
    status = 0
    # per symbol a: the windows ending at n that a leaf ending in a closes
    # and some other leaf does not, and how many of their starts are new
    occ_by = [0] * (k + 1)
    new_by = [0] * (k + 1)

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
            top = mu + 1 if mu < k else k
            if d == n - 1:
                # all children of w[:d] are leaves: score them in one pass
                # over p, by _append's rule, with no barrier row and no
                # marks. Window (i, r*p) ending at n is a power of a child
                # iff w[:d] has no break pair in it (bar < i) and the last
                # symbol makes none with the nearest letter w[j], j >= i, of
                # its class. With no such letter every child closes it,
                # otherwise only the hole and the letter w[j] do
                row = base[d]
                occ_all = new_all = 0
                for p in range(1, pmax + 1):
                    i = n - r * p
                    if bar[row + p] < i:
                        fresh = 1 if marked_at[i] == 0 else 0
                        j = d - p
                        while j >= i and w[j] == 0:
                            j -= p
                        if j < i:
                            occ_all += 1
                            new_all += fresh
                        else:
                            occ_by[0] += 1
                            new_by[0] += fresh
                            occ_by[w[j]] += 1
                            new_by[w[j]] += fresh
                # then each child is counted, cut or kept in symbol order.
                # w[:d] holds only letters up to mu <= top, so a full pass
                # clears every per-symbol count it filled
                for s in range(top + 1):
                    if nodes >= node_budget:
                        status = 2
                        break
                    added = occ_all + occ_by[s]
                    new_starts = new_all + new_by[s]
                    occ_by[s] = 0
                    new_by[s] = 0
                    nodes += 1
                    if nstarts[d] + new_starts > t:
                        pruned_start += 1
                    else:
                        w[d] = s
                        c = occ[d] + added
                        if c > best:
                            best = c
                            witnesses.clear()
                            witnesses.append(w[:n])
                        elif c == best and len(witnesses) < wcap:
                            witnesses.append(w[:n])
                        if survey:
                            frontier.append(w[:n])
                if status == 2:
                    break
                # advanced stays False: w[:d] is exhausted
            elif s <= top:
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
                        witnesses.clear()
                        witnesses.append(w[:m])
                    elif c == best:
                        # nodes of one length arrive in lex order, so w[:m]
                        # goes before the first witness longer than m
                        pos = len(witnesses)
                        if pos < wcap or len(witnesses[pos - 1]) > m:
                            while pos > 0 and len(witnesses[pos - 1]) > m:
                                pos -= 1
                            witnesses.insert(pos, w[:m])
                            if len(witnesses) > wcap:
                                witnesses.pop()
                    # m < n here: the leaves at depth n go by the pass above
                    if mu < k:
                        pruned_sym += k - mu - 1
                    d = m
                    trial[d] = 0
        if not advanced:
            if d == d0:
                break
            if nstarts[d] != nstarts[d - 1]:
                _unmark(marked_at, d, r)
            d -= 1
            trial[d] += 1
    return status, nodes, pruned_sym, pruned_start, best, witnesses, frontier
