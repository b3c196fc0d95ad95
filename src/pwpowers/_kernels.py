"""Inner loops for power detection, theorem checking, and search.

All kernels are plain Python. No kernel has to release the interpreter
lock, as `search --jobs` runs partitions in worker processes. Symbol
encoding throughout: 0 is the hole, 1..k are letters. Positions inside
kernels are 0-indexed; the public wrappers shift to the 1-indexed
convention.

A window of length r*p is an r-th power iff no residue class mod p inside
it holds two different letters. The two occurrence scans test that rule in
two forms. `occurrence_keys` is bit-parallel over positions, one bit per
position: for each p it marks, with a few big-int operations over every word
of a batch at once, laid end to end, every pair of letters t*p apart
(t = 1..r-1) that differ, and keeps the windows holding none. Any two
positions of one class inside a window lie at most (r-1)*p apart, so these
pairs are all the pairs the rule names. The per-append scan inside
`search_kernel` keeps break pairs instead: two consecutive letters of one
residue class mod p that differ, with only holes of that class between
them. A window holds a differing pair of one class iff it holds a break
pair (between two differing letters of a class, some two consecutive ones
differ), so both forms accept the same windows. `occurrence_keys` returns
one sorted int column of (start, length) keys for the whole batch, which
`analyze --json` writes to text with no object per occurrence;
`occurrence_scan` is its call on one word, split into the two columns,
starts and lengths, that the library reads. The independent checks of both
scans, by explicit root construction and class by class, live in
tests/helpers.py.

The search scores the leaves, the children of a node one symbol short of
the maximum length, all in one pass over p from their parent's barrier
row: a window that no break pair of the parent crosses is closed by the
hole and by every letter, or only by the hole and one letter, the nearest
one of its class inside the window. The search works on plain int lists,
as list indexing is cheaper than indexing a byte view.

The verifier kernels (fine-wilf, theorem-sq, lemma-h1, corollary-full)
report as an odometer over every word would, length first, then
lexicographic by symbol code (hole < a < b < ...), but run none. All four
share one depth-first pass over the words their claim constrains:
fine-wilf the canonical full words, the other three the start-bounded
tree, scoring each append with the search's `_append`. The pass cuts by
odometer position, and the rest of the space is counted in closed form
(see their section). Canonical representatives are words whose
letters first appear in alphabetical order; predicates checked here are
invariant under letter renaming, so skipping non-canonical words loses
nothing.
"""

import math
from functools import cache
from itertools import accumulate, compress, repeat

# read by perfbench, which reports it as the kernel backend
NUMBA_ENABLED = False


@cache
def _scan_tables():
    # occurrence_keys' translate tables, built on its first scan, not at
    # import, since verify and search never scan: code -> b"0"/b"1" for
    # the letters, and for bit j of the letter index (code - 1) per j; per
    # j, the codes to delete to leave the letters whose index is >= 2**j;
    # and b"0"/b"1" -> 0/1
    return (
        b"0" + b"1" * 255,
        tuple(bytes(b"01"[c > 0 and (c - 1) >> j & 1] for c in range(256)) for j in range(7)),
        tuple(bytes(range((1 << j) + 1)) for j in range(8)),
        bytes.maketrans(b"01", b"\0\1"),
    )


def occurrence_keys(words, r):
    # every r-th power occurrence of every word in `words` (byte views, bytes
    # or int lists of codes below 128), in one scan. Returns (order, shift,
    # keys, starts): the words are laid end to end in `order`, longest first
    # (ties in input order); keys is the sorted column of x << shift |
    # length, x the occurrence's start in that layout, so each word's rows
    # are one run of keys, in (start, length) order; bit x of `starts` is
    # set iff some occurrence starts at x.
    #
    # Bit x of each int stands for position x of the layout: D marks the
    # letters, and plane j the letters whose index (code - 1) has bit j.
    # At shift s, (OR_j P_j ^ P_j>>s) & D & D>>s marks every x whose letter
    # differs from the letter at x + s: C_t, at s = t*p, marks every
    # differing pair (x, x+t*p). Window (i, r*p) is a power iff no C_t,
    # t = 1..r-1, marks an x in [i, i + (r-t)*p), so Q_t, the OR of
    # C_1..C_t, is folded over those spans by p-shifts (Y = Y>>p | Q_t) and
    # spread over p positions by doubling shifts. `valid` marks the starts
    # whose window lies inside one word; those with no bit in Y are the
    # power starts for p. A pair across two words is never inside such a
    # window, and a word shorter than r*p holds none, so when r*p passes the
    # length of the words at the top of the layout, every int drops them.
    lengths = list(map(len, words))
    order = sorted(range(len(words)), key=lengths.__getitem__, reverse=True)
    sizes = [lengths[i] for i in order]
    shift = sizes[0].bit_length() if sizes else 0
    keys = []
    starts = 0
    pmax = sizes[0] // r if sizes else 0
    if not pmax:
        return order, shift, keys, starts
    defined, plane_table, below, flag = _scan_tables()
    b = bytes(words[0]) if len(words) == 1 else b"".join([bytes(words[i]) for i in order])
    D = int(b.translate(defined)[::-1], 2)
    planes = []
    while b.translate(None, below[len(planes)]):  # a letter index >= 2**j
        planes.append(int(b.translate(plane_table[len(planes)])[::-1], 2))
    live = len(sizes)  # the words sizes[:live] are in the ints
    while sizes[live - 1] < r:
        live -= 1
    # the starts of p = 1; from each p to the next, see the end of the loop
    valid = int("".join(["0" * (r - 1) + "1" * (n - r + 1) for n in reversed(sizes[:live])]), 2)
    ends = list(accumulate(sizes))
    step = 1 << shift
    more_t = range(r - 2)
    spread = []  # shifts by 1, 2, 4, .. positions below p
    top = 1  # largest power of two up to p
    for p in range(1, pmax + 1):
        length = r * p
        if sizes[live - 1] < length:  # drop the words shorter than r*p
            while sizes[live - 1] < length:
                live -= 1
            cut = (1 << ends[live - 1]) - 1
            D &= cut
            planes = [P & cut for P in planes]
        if p == top << 1:
            spread.append(top)
            top = p
        Y = 0
        for P in planes:
            Y |= P ^ (P >> p)
        Y &= D & (D >> p)
        if more_t:
            Q = Y
            s = p
            for _ in more_t:
                s += p
                C = 0
                for P in planes:
                    C |= P ^ (P >> s)
                Q |= C & D & (D >> s)
                Y = Y >> p | Q
        for shift_by in spread:
            Y |= Y >> shift_by
        if p != top:
            Y |= Y >> (p - top)
        good = valid ^ (valid & Y)  # valid & ~Y, without a negative int
        if good:
            starts |= good
            # bit x of good is character -1-x of its binary text: dense
            # starts are read by compress, sparse ones by searching the text
            bits = bin(good)
            if good.bit_count() << 4 > len(bits):
                flags = bits[:1:-1].encode().translate(flag)
                keys += compress(range(length, len(flags) << shift, step), flags)
            else:
                last = len(bits) - 1
                i = bits.rfind("1")
                while i >= 0:
                    keys.append((last - i) << shift | length)
                    i = bits.rfind("1", 0, i)
        # a window of root p + 1 lies in one word iff the windows of root p at
        # i and i + r do, as they overlap when p >= 2; at p = 1 the window
        # at i + 1 joins them
        valid &= valid >> r if p > 1 else valid >> 1 & valid >> r
    keys.sort()
    return order, shift, keys, starts


def occurrence_scan(word, r):
    # every r-th power occurrence of one word as two columns (starts,
    # lengths), 0-indexed starts, in (start, length) order, which
    # power_occurrences relies on; row i is (starts[i], lengths[i]). `word`
    # is a byte view, bytes or an int list of codes: occurrence_keys on a
    # batch of one
    _, shift, keys, _ = occurrence_keys((word,), r)
    mask = (1 << shift) - 1
    return [key >> shift for key in keys], [key & mask for key in keys]


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
# No odometer runs. Each claim is decided in one depth-first pass over its
# premise words, the canonical words it constrains, cut by odometer
# position, and the counts are computed in closed form: `enumerated` is the
# odometer position of the counterexample, `checked` its rank among
# canonical words, and the budget stops the run exactly where the odometer
# would have.
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


def _decide_start_bounded(r, k, lo, max_len, budget, violates):
    # shared body of the four kernels below: one depth-first pass over the
    # canonical words of length 1..max_len over the symbols lo..k. With an
    # exponent r it walks the tree of words with at most one r-th power
    # start, scoring each append with _append, and its premise words are
    # those with one start; with r None it scores nothing and every word is
    # a premise word, with power count 0. violates(codes, powers) tests one
    # premise word.
    #
    # The pass meets words out of odometer order, but every extension of a
    # word and every later sibling comes after it there. So a limit on the
    # odometer position, starting at the budget, cuts a child and all its
    # later siblings once the child passes it, and a violation at position
    # v lowers it to v - 1: the last violation found is the least one. best
    # and witness come from a Pareto record of (position, powers, codes),
    # both rising, read at the final limit.
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
    pmax = walk_len // r if r else 0
    limit, counterexample = budget, None
    record = [(0, 0, None)]  # (0, 0, None): no premise word with a power
    w, marked_at, bar, base = [], [], [-1], [0]
    # per depth m, grown as the pass first reaches it: odometer position,
    # largest letter, powers and power starts of w[:m], and the next symbol
    # to append to it
    pos, mu, powers, starts, trial = [0], [0], [0], [0], [lo]
    m = 0  # depth of the current node w[:m]
    while m >= 0:
        s = trial[m]
        position = pos[m] * symbols + s + 1 - lo
        if m < max_len and starts[m] < 2 and s <= min(mu[m] + 1, k) and position <= limit:
            trial[m] = s + 1
            if m == len(w):
                for stack in (w, marked_at, pos, mu, powers, starts, trial):
                    stack.append(0)
            w[m] = s
            m += 1
            pos[m], mu[m], trial[m] = position, max(mu[m - 1], s), lo
            if r:
                added, new = _append(w, m, r, pmax, bar, base, marked_at)
                powers[m], starts[m] = powers[m - 1] + added, starts[m - 1] + new
            if not r or starts[m] == 1:
                codes = tuple(w[:m])
                if violates(codes, powers[m]):
                    limit, counterexample = position - 1, codes
                    while record[-1][0] > limit:
                        record.pop()
                else:
                    # unless an entry no later than the word has as many
                    # powers, it replaces the later entries with no more
                    i = len(record)
                    while record[i - 1][0] > position:
                        i -= 1
                    if powers[m] > record[i - 1][1]:
                        j = i
                        while j < len(record) and record[j][1] <= powers[m]:
                            j += 1
                        record[i:j] = [(position, powers[m], codes)]
        else:
            if m and starts[m] != starts[m - 1]:
                _unmark(marked_at, m, r)
            m -= 1
    _, best, witness = record[-1]
    if counterexample is not None:
        return 1, rank_at(limit + 1), limit + 1, counterexample, best, witness
    if walk_len == max_len and last <= budget:
        return 0, rank_at(last), last, None, best, witness
    return 2, rank_at(budget) if budget >= 1 else 0, max(budget + 1, 1), None, best, witness


def fine_wilf_kernel(k, max_len, budget):
    # full words; if p and q are both strong periods and the word is long
    # enough (|w| >= p + q - gcd(p,q)), gcd(p,q) must be a strong period too.
    # Every canonical full word is a premise word, with no power count
    return _decide_start_bounded(
        None, k, 1, max_len, budget, lambda codes, _: _fine_wilf_refutation(codes) is not None
    )


def lemma_h1_kernel(k, max_len, budget):
    # words with two or more squares all starting at the same position must
    # have exactly one hole, located at position 1
    return _decide_start_bounded(
        2, k, 0, max_len, budget,
        lambda codes, squares: squares > 1 and (codes[0] != 0 or codes.count(0) != 1),
    )


def theorem_sq_kernel(k, max_len, bound, budget):
    # words whose squares all start at one position carry at most `bound`
    # of them
    return _decide_start_bounded(2, k, 0, max_len, budget, lambda codes, squares: squares > bound)


def corollary_full_kernel(r, k, max_len, budget):
    # full words: a position starting two or more r-th power occurrences is
    # never the last start, so no word has two occurrences at a unique start
    return _decide_start_bounded(r, k, 1, max_len, budget, lambda codes, powers: powers > 1)


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


def search_kernel(prefix, max_len, k, r, t, node_budget, wcap, survey, anchored=None):
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

    With `anchored` = (floor, goal) the walk keeps only words whose r-th
    powers all start at position 0, and t is unused. best starts at floor,
    and a node is cut (counted in pruned_start_bound) when (a) a power
    starts elsewhere, or (b) its count plus its open roots is at most best.
    A root p is open when m < r*p <= max_len and w[:m] has no break pair
    for p: such a pair would lie inside the window (0, r*p). Every node is
    scored by `_append`, as the one-pass leaves carry no start marks, and
    the walk stops, with status 0, at the first node scoring goal.
    """
    n = max_len
    pmax = n // r
    d0 = len(prefix)
    # per-depth lists, indexed by depth 0..size-1 (w and marked_at by
    # position); they double as the walk first goes deeper, so memory
    # follows the depth reached, not max_len
    size = d0 + 2
    w = [0] * size
    marked_at = [0] * size  # depth at which a start was first marked, or 0
    max_used = [0] * size
    occ = [0] * size
    nstarts = [0] * size
    trial = [0] * size
    bar = [-1]  # barrier row 0: the empty word has no break pair
    base = [0]

    for m in range(1, d0 + 1):
        s = prefix[m - 1]
        w[m - 1] = s
        max_used[m] = s if s > max_used[m - 1] else max_used[m - 1]
        added, new_starts = _append(w, m, r, pmax, bar, base, marked_at)
        occ[m] = occ[m - 1] + added
        nstarts[m] = nstarts[m - 1] + new_starts

    best = -1 if anchored is None else anchored[0]
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
            if d == n - 1 and anchored is None:
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
                if m == size:
                    for column in (w, marked_at, max_used, occ, nstarts, trial):
                        column += repeat(0, size)
                    size += size
                if s > mu:
                    mu = s
                max_used[m] = mu
                added, new_starts = _append(w, m, r, pmax, bar, base, marked_at)
                occ[m] = occ[d] + added
                nstarts[m] = nstarts[d] + new_starts
                nodes += 1
                if anchored is None:
                    cut = nstarts[m] > t
                else:
                    # (a), then (b): the open roots p <= m are the -1 entries
                    # of row m past m // r, and every p > m is open
                    hi = m if m < pmax else pmax
                    row = base[m]
                    cut = nstarts[m] > (marked_at[0] != 0) or (
                        occ[m] + bar[row + m // r + 1 : row + hi + 1].count(-1) + pmax - hi
                        <= best
                    )
                if cut:
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
                        if anchored is not None and c >= anchored[1]:
                            break
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
                    # the leaves at depth n have no children, and outside the
                    # anchored walk they go by the pass above
                    if mu < k and m < n:
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
