"""Acceptance gate.

Each test is one shipping criterion; it prints a single PASS/FAIL line with
the measured values (visible even under pytest capture) and then asserts.
Every test also asserts its wall-clock budget, loose enough for the
interpreted kernels.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from pwpowers import (
    SearchQuery,
    _kernels,
    cube_examples,
    format_word,
    power_profile,
    prop2_word,
    prop3_word,
    search_max_powers,
    square_chain,
    verify_corollary_full,
    verify_fine_wilf,
    verify_lemma_2k,
    verify_lemma_h1,
    verify_lemma_short,
    verify_theorem_sq_bound,
)
from helpers import (
    check_canonicalize_laws,
    check_containment_laws,
    check_extension_monotonicity,
    check_join_laws,
    check_permutation_invariance,
    occurrence_scan_by_roots,
)


@pytest.fixture
def report(capsys):
    def _report(num, total, ok, detail, elapsed, budget):
        line = (
            f"ACCEPTANCE {num:>2}/{total} {'PASS' if ok else 'FAIL'} "
            f"{detail} [{elapsed:.2f}s / budget {budget:.0f}s]"
        )
        with capsys.disabled():
            print(line)
        assert ok, line
        assert elapsed <= budget, line

    return _report


def _occ(w, r):
    return [(o.start, o.length) for o in power_profile(w, r).occurrences]


_CHAIN_WORDS = [".", ".a", ".aba", ".abacaba", ".abacabadabacaba"]


def test_01_square_chain_k_squares_one_start(report):
    t0 = time.perf_counter()
    bad = []
    for k in range(0, 6):
        w = square_chain(k)
        p = power_profile(w, 2)
        expected = [(1, 2**j) for j in range(1, k + 1)]
        if not (
            len(w) == 2**k
            and (k > 4 or format_word(w) == _CHAIN_WORDS[k])
            and w.hole_positions() == (1,)
            and _occ(w, 2) == expected
            and (p.unique_start == (1 if k >= 1 else None))
        ):
            bad.append(k)
    elapsed = time.perf_counter() - t0
    report(1, 10, not bad,
           f"square chain k=0..5 bit-exact, k same-start squares, lengths 2^j "
           f"(bad={bad})",
           elapsed, 5)


def test_02_two_same_start_powers_every_exponent(report):
    t0 = time.perf_counter()
    bad = []
    for r in range(2, 13):
        w = prop2_word(r)
        p = power_profile(w, r)
        if not (len(w) == 2 * r and _occ(w, r) == [(1, r), (1, 2 * r)]
                and p.unique_start == 1):
            bad.append(r)
    elapsed = time.perf_counter() - t0
    report(2, 10, not bad,
           f"length-2r word with exactly two r-th powers, r=2..12 (bad={bad})",
           elapsed, 5)


def test_03_three_same_start_powers_odd_triples(report):
    t0 = time.perf_counter()
    bad = []
    for r in (3, 9, 15, 21):
        w = prop3_word(r)
        p = power_profile(w, r)
        if not (len(w) == 3 * r and _occ(w, r) == [(1, r), (1, 2 * r), (1, 3 * r)]
                and p.unique_start == 1):
            bad.append(r)
    if format_word(prop3_word(3)) != "..aba.baa":
        bad.append("word3")
    variant = cube_examples()[1]
    pv = power_profile(variant, 3)
    if not (format_word(variant) == "..aba.ba."
            and _occ(variant, 3) == [(1, 3), (1, 6), (1, 9)]
            and pv.unique_start == 1):
        bad.append("variant")
    elapsed = time.perf_counter() - t0
    report(3, 10, not bad,
           "length-3r word with exactly three r-th powers, r in {3,9,15,21}, "
           f"plus the two three-cube 9-letter words (bad={bad})",
           elapsed, 5)


def test_04_square_bound_verified_and_attained(report):
    t0 = time.perf_counter()
    # instancesChecked counts every canonical word of the space: over holes
    # and k letters, sum over n <= N and i <= k of Stirling S(n+1, i+1)
    r2 = verify_theorem_sq_bound(2, 12)
    r3 = verify_theorem_sq_bound(3, 9)
    r2_big = verify_theorem_sq_bound(2, 16)
    r3_big = verify_theorem_sq_bound(3, 13)
    best = search_max_powers(
        SearchQuery(exponent=2, alphabet_size=2, max_len=12)
    )
    ok = (
        r2.passed and r2.instances_checked == 398586
        and r3.passed and r3.instances_checked == 58768
        and r2_big.passed and r2_big.instances_checked == 32285048
        and r3_big.passed and r3_big.instances_checked == 14921276
        and r3_big.findings["maxSquares"] == 3
        and r3_big.findings["maxWitness"] == ".abacaba"
        and best.best_count == 2 and best.exhaustive
    )
    elapsed = time.perf_counter() - t0
    report(4, 10, ok,
           "unique-start words carry at most k squares (k=2 n<=12: "
           f"{r2.outcome}/{r2.instances_checked}; k=3 n<=9: "
           f"{r3.outcome}/{r3.instances_checked}; k=2 n<=16: "
           f"{r2_big.outcome}/{r2_big.instances_checked}; k=3 n<=13: "
           f"{r3_big.outcome}/{r3_big.instances_checked}, max "
           f"{r3_big.findings['maxSquares']} at {r3_big.findings['maxWitness']}) "
           f"and the bound is attained (search best={best.best_count})",
           elapsed, 300)


def test_05_full_word_doubled_start_is_never_last(report):
    t0 = time.perf_counter()
    r2 = verify_corollary_full(2, 2, 16)
    r3 = verify_corollary_full(3, 2, 15)
    # ternary: sum over n <= 14 of S(n,1) + S(n,2) + S(n,3), Stirling
    # numbers of the second kind
    t3 = verify_corollary_full(2, 3, 14)
    ok = (r2.passed and r2.instances_checked == 65535
          and r3.passed and r3.instances_checked == 32767
          and t3.passed and t3.instances_checked == 1195749)
    elapsed = time.perf_counter() - t0
    report(5, 10, ok,
           "full words: a doubled power start is never the last start "
           f"(k=2 r=2 n<=16: {r2.outcome}/{r2.instances_checked}; "
           f"k=2 r=3 n<=15: {r3.outcome}/{r3.instances_checked}; "
           f"k=3 r=2 n<=14: {t3.outcome}/{t3.instances_checked})",
           elapsed, 300)


def test_06_two_periods_force_gcd_on_full_words(report):
    t0 = time.perf_counter()
    r2 = verify_fine_wilf(2, 13)
    r3 = verify_fine_wilf(3, 9)
    ok = (r2.passed and r2.instances_checked == 8191
          and r3.passed and r3.instances_checked == 4925)
    elapsed = time.perf_counter() - t0
    report(6, 10, ok,
           "full words with strong periods p,q and length >= p+q-gcd have "
           f"period gcd (k=2 n<=13: {r2.outcome}/{r2.instances_checked}; "
           f"k=3 n<=9: {r3.outcome}/{r3.instances_checked})",
           elapsed, 300)


def test_07_hole_structure_lemmas(report):
    t0 = time.perf_counter()
    rh = verify_lemma_h1(2, 11)
    rh_big = verify_lemma_h1(2, 16)
    r2k = verify_lemma_2k(2, 6)
    rsh = verify_lemma_short(2, 6)
    ok = (rh.passed and rh.instances_checked == 132865
          and rh_big.passed and rh_big.instances_checked == 32285048
          and r2k.passed and r2k.instances_checked == 126
          and rsh.passed and rsh.instances_checked == 126)
    elapsed = time.perf_counter() - t0
    report(7, 10, ok,
           "hole-structure lemmas: multi-square one-start words have hole set "
           f"{{1}} (n<=11: {rh.outcome}/{rh.instances_checked}; n<=16: "
           f"{rh_big.outcome}/{rh_big.instances_checked}); long unique-start "
           f"square forces an interior start ({r2k.outcome}/{r2k.instances_checked}); "
           f"short matching square forces a square in the tail "
           f"({rsh.outcome}/{rsh.instances_checked})",
           elapsed, 300)


def test_08_scan_routes_agree_on_random_words(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    mismatches = 0
    words = 10000
    for _ in range(words):
        n = int(rng.integers(0, 31))
        k = int(rng.integers(1, 4))
        codes = memoryview(rng.integers(0, k + 1, size=n).astype(np.uint8).tobytes())
        for r in (2, 3, 4):
            # the scan's own order must already be the sorted (start, length) order
            got = list(zip(*_kernels.occurrence_scan(codes, r)))
            ref = sorted(occurrence_scan_by_roots(codes, k, r))
            if got != ref:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(8, 10, mismatches == 0,
           f"window scan, in its own order, equals the sorted root-construction "
           f"oracle on {words} random words, |w|<=30, k<=3, r in {{2,3,4}} "
           f"({mismatches} mismatches)",
           elapsed, 300)


def test_09_order_and_symmetry_laws(report):
    t0 = time.perf_counter()
    violations = {
        "containment": check_containment_laws(4, 2),
        "join": check_join_laws(4, 2),
        "permutation": check_permutation_invariance(5, 3),
        "extension": check_extension_monotonicity(5, 2),
        "canonical": check_canonicalize_laws(5, 3),
    }
    ok = all(v == 0 for v in violations.values())
    elapsed = time.perf_counter() - t0
    report(9, 10, ok,
           f"exhaustive order/symmetry law sweeps, violations={violations}",
           elapsed, 300)


def test_10_cli_json_determinism(report):
    t0 = time.perf_counter()
    base_cmd = [sys.executable, "-m", "pwpowers", "search",
                "--r", "3", "--k", "2", "--max-len", "9", "--json"]
    runs = {
        jobs: subprocess.run(base_cmd + ["--jobs", str(jobs)],
                             capture_output=True, text=True, timeout=300)
        for jobs in (1, 8)
    }
    identical = runs[1].stdout == runs[8].stdout and runs[1].returncode == 0
    doc = json.loads(runs[1].stdout) if identical else {}
    analyze = subprocess.run(
        [sys.executable, "-m", "pwpowers", "analyze", ".aba", "--r", "2", "--json"],
        capture_output=True, text=True, timeout=300,
    )
    round_trip = (
        analyze.returncode == 0
        and json.dumps(json.loads(analyze.stdout), indent=2) + "\n" == analyze.stdout
    )
    ok = identical and doc.get("bestCount") == 3 and round_trip
    elapsed = time.perf_counter() - t0
    report(10, 10, ok,
           "CLI: search --jobs 1 and --jobs 8 output byte-identical JSON "
           f"(bestCount={doc.get('bestCount')}), analyze JSON round-trips "
           f"byte-identically ({round_trip})",
           elapsed, 120)
