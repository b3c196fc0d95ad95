"""Brute-force verification of the package's structural claims on bounded
word spaces.

Each verifier covers every word up to a stated length (restricted to
canonical representatives where the claim is invariant under letter
renaming, which all of these are) and returns a VerificationReport.
fine-wilf, theorem-sq, lemma-h1 and corollary-full share one body: their
kernels make one depth-first pass over the words the claim constrains
(every canonical full word for fine-wilf; for the other three, those
whose powers start at one position at most, which for corollary-full
holds of its first counterexample, if any) and count the rest. A failing
report always carries a concrete counterexample that can be re-checked
through the public API. Enumerations are capped by a check budget;
exceeding it raises ResourceLimitError rather than returning a verdict.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Optional

from . import _kernels
from .constructions import cube_examples, prop2_word, prop3_word, square_chain
from .errors import ResourceLimitError
from .powers import _validate_exponent, power_occurrences, power_profile
from .words import Alphabet, PartialWord, _Record, _require_positive, format_word

DEFAULT_CHECK_BUDGET = 10**8


class Counterexample(_Record):
    __slots__ = ("word", "context")

    def __init__(self, word: PartialWord, context: dict):
        self._set(word, context)

    def to_json_dict(self) -> dict:
        return {"word": format_word(self.word), "context": dict(self.context)}


class VerificationReport(_Record):
    """Outcome of one bounded exhaustive check.

    `elapsed_seconds` is excluded from equality so identical runs compare
    equal regardless of wall-clock noise. `findings` defaults to a new
    empty dict.
    """

    __slots__ = ("claim", "parameters", "instances_checked", "outcome", "counterexample",
                 "findings", "elapsed_seconds")

    def __init__(
        self,
        claim: str,
        parameters: dict,
        instances_checked: int,
        outcome: str,  # "pass" | "fail"
        counterexample: Optional[Counterexample],
        findings: Optional[dict] = None,
        elapsed_seconds: float = 0.0,
    ):
        self._set(claim, parameters, instances_checked, outcome, counterexample,
                  {} if findings is None else findings, elapsed_seconds)

    def _key(self) -> tuple:
        return self._values()[:-1]

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": dict(self.parameters),
            "instancesChecked": self.instances_checked,
            "outcome": self.outcome,
            "counterexample": (
                None if self.counterexample is None else self.counterexample.to_json_dict()
            ),
            "findings": dict(self.findings),
            "elapsedSeconds": round(self.elapsed_seconds, 6),
        }


def _budget_error(claim: str, enumerated: int, budget: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"{claim}: enumeration exceeded the check budget "
        f"({enumerated} words produced, budget {budget})"
    )


def _report(
    claim: str,
    parameters: dict,
    checked: int,
    counterexample: Optional[Counterexample],
    findings: dict,
    t0: float,
) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        parameters=parameters,
        instances_checked=checked,
        outcome="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        findings=findings,
        elapsed_seconds=time.perf_counter() - t0,
    )


def _verify_word_space(claim: str, parameters: dict, alphabet: Alphabet, budget: int, kernel,
                       context, findings=lambda best, witness: {}) -> VerificationReport:
    """Decide a claim on every word up to a length through kernel(), which
    returns the `_kernels` verifier tuple (status, checked, enumerated,
    counterexample, best, witness). A budget stop raises; a refuted word
    gets context(word) as its counterexample context, and findings(best,
    witness) follow the `wordsEnumerated` finding."""
    t0 = time.perf_counter()
    status, checked, enumerated, bad, best, witness = kernel()
    if status == 2:
        raise _budget_error(claim, enumerated, budget)
    counterexample = None
    if bad is not None:
        word = PartialWord(bad, alphabet)
        counterexample = Counterexample(word, context(word))
    return _report(claim, parameters, checked, counterexample,
                   {"wordsEnumerated": enumerated, **findings(best, witness)}, t0)


def verify_fine_wilf(k: int, max_len: int, budget: int = DEFAULT_CHECK_BUDGET) -> VerificationReport:
    """Every full word of length up to max_len over k letters that has
    strong periods p and q with |w| >= p + q - gcd(p, q) also has strong
    period gcd(p, q)."""
    alphabet = Alphabet(k)
    _require_positive("max_len", max_len)

    def context(word):
        p, q = _kernels._fine_wilf_refutation(word.codes.tolist())
        return {"p": p, "q": q, "gcd": math.gcd(p, q)}

    return _verify_word_space(
        "fine-wilf", {"k": k, "maxLen": max_len}, alphabet, budget,
        lambda: _kernels.fine_wilf_kernel(k, max_len, budget), context,
    )


def verify_corollary_full(r: int, k: int, max_len: int, budget: int = DEFAULT_CHECK_BUDGET) -> VerificationReport:
    """In every full word up to max_len over k letters, a position starting
    two or more r-th power occurrences is followed by a strictly later
    start. Equivalently: no full word has two occurrences sharing a unique
    start position."""
    _validate_exponent(r)
    alphabet = Alphabet(k)
    _require_positive("max_len", max_len)

    def context(word):
        starts = [o.start for o in power_profile(word, r).occurrences]
        last = max(starts)
        return {"start": last, "occurrencesAtStart": starts.count(last)}

    return _verify_word_space(
        "corollary-full", {"r": r, "k": k, "maxLen": max_len}, alphabet, budget,
        lambda: _kernels.corollary_full_kernel(r, k, max_len, budget), context,
    )


def verify_lemma_h1(k: int, max_len: int, budget: int = DEFAULT_CHECK_BUDGET) -> VerificationReport:
    """Every word up to max_len over k letters with two or more squares all
    starting at the same position has exactly one hole, at position 1."""
    alphabet = Alphabet(k)
    _require_positive("max_len", max_len)

    def context(word):
        profile = power_profile(word, 2)
        return {
            "squares": len(profile.occurrences),
            "startPositions": list(profile.start_positions),
            "holes": list(word.hole_positions()),
        }

    return _verify_word_space(
        "lemma-h1", {"k": k, "maxLen": max_len}, alphabet, budget,
        lambda: _kernels.lemma_h1_kernel(k, max_len, budget), context,
    )


def _verify_hole_prefix(claim: str, k: int, max_u_len: int, budget: int, refute) -> VerificationReport:
    """Check a claim on every w = ◊u'cu' with u = ◊u' of length at most
    max_u_len and c a letter: the joint shape behind the two interior-square
    lemmas. refute(w, u_len, c, u') returns the counterexample context of a
    w that breaks the claim, else None."""
    if not isinstance(k, int) or not 2 <= k <= 26:
        raise ValueError(f"alphabet size must be in 2..26, got {k!r}")
    _require_positive("max_u_len", max_u_len)
    t0 = time.perf_counter()
    parameters = {"k": k, "maxULen": max_u_len}
    alphabet = Alphabet(k)
    checked = 0
    for u_len in range(1, max_u_len + 1):
        for tail in itertools.product(range(1, k + 1), repeat=u_len - 1):
            for c in range(1, k + 1):
                checked += 1
                if checked > budget:
                    raise _budget_error(claim, checked, budget)
                w = PartialWord((0,) + tail + (c,) + tail, alphabet)
                context = refute(w, u_len, c, tail)
                if context is not None:
                    return _report(claim, parameters, checked, Counterexample(w, context), {}, t0)
    return _report(claim, parameters, checked, None, {}, t0)


def verify_lemma_2k(k: int, max_u_len: int, budget: int = DEFAULT_CHECK_BUDGET) -> VerificationReport:
    """For w = ◊u'cu' (u = ◊u', v = cu' compatible with every completion of
    u): any square occurrence from position 1 that is longer than |u| but
    shorter than the whole word forces a square start strictly inside w."""

    def refute(w, u_len, c, tail):
        occs = power_occurrences(w, 2)
        if any(o.start > 1 for o in occs):
            return None
        for o in occs:
            if o.start == 1 and u_len < o.length < len(w):
                return {"uLen": u_len, "squareLength": o.length}
        return None

    return _verify_hole_prefix("lemma-2k", k, max_u_len, budget, refute)


def verify_lemma_short(k: int, max_u_len: int, budget: int = DEFAULT_CHECK_BUDGET) -> VerificationReport:
    """For w = ◊u'cu' as above: any square occurrence w[1..2m] with
    2m <= |u| and w[m+1] equal to the first letter of v = cu' forces a
    square occurrence inside v itself."""

    def refute(w, u_len, c, tail):
        for o in power_occurrences(w, 2):
            # w[m+1] equals v[1], for m = |square| / 2
            if o.start == 1 and o.length <= u_len and w.codes[o.length // 2] == c:
                v = PartialWord((c,) + tail, w.alphabet)
                if not power_occurrences(v, 2):
                    return {"uLen": u_len, "squareLength": o.length, "v": format_word(v)}
        return None

    return _verify_hole_prefix("lemma-short", k, max_u_len, budget, refute)


def verify_theorem_sq_bound(
    k: int,
    max_len: int,
    bound: Optional[int] = None,
    budget: int = DEFAULT_CHECK_BUDGET,
) -> VerificationReport:
    """Every word up to max_len over k letters whose squares all start at a
    single position has at most `bound` of them (default bound: k).

    Passing a smaller bound probes tightness: bound = k - 1 is expected to
    fail once max_len reaches 2^k, and the counterexample exhibits a word
    attaining k squares.
    """
    alphabet = Alphabet(k)
    _require_positive("max_len", max_len)
    if bound is None:
        bound = k
    _require_positive("bound", bound)

    def findings(best, witness):
        found = {"maxSquares": best}
        if witness is not None:
            found["maxWitness"] = format_word(PartialWord(witness, alphabet))
        return found

    return _verify_word_space(
        "theorem-sq", {"k": k, "maxLen": max_len, "bound": bound}, alphabet, budget,
        lambda: _kernels.theorem_sq_kernel(k, max_len, bound, budget),
        lambda word: {"squares": len(power_occurrences(word, 2)), "bound": bound},
        findings,
    )


def verify_construction(name: str, k: Optional[int] = None, r: Optional[int] = None) -> VerificationReport:
    """Re-check a construction's claimed occurrence profile by direct scan.

    Names: square-chain (needs k >= 0), prop2 (needs r >= 2), prop3 (needs
    r an odd multiple of 3), cube-examples (no parameters). A parameter the
    named construction does not take is a ValueError.
    """
    t0 = time.perf_counter()
    if name == "square-chain":
        if k is None:
            raise ValueError("square-chain needs k")
        targets = [(square_chain(k), 2, {(1, 2**j) for j in range(1, k + 1)})]
        parameters = {"name": name, "k": k}
    elif name == "prop2":
        if r is None:
            raise ValueError("prop2 needs r")
        targets = [(prop2_word(r), r, {(1, r), (1, 2 * r)})]
        parameters = {"name": name, "r": r}
    elif name == "prop3":
        if r is None:
            raise ValueError("prop3 needs r")
        targets = [(prop3_word(r), r, {(1, r), (1, 2 * r), (1, 3 * r)})]
        parameters = {"name": name, "r": r}
    elif name == "cube-examples":
        targets = [(w, 3, {(1, 3), (1, 6), (1, 9)}) for w in cube_examples()]
        parameters = {"name": name}
    else:
        raise ValueError(f"unknown construction {name!r}")
    for param, value in (("k", k), ("r", r)):
        if value is not None and param not in parameters:
            raise ValueError(f"{name} takes no parameter {param}")

    for checked, (w, rr, expected) in enumerate(targets, start=1):
        profile = power_profile(w, rr)
        got = {(o.start, o.length) for o in profile.occurrences}
        expected_unique = 1 if expected else None
        if got != expected or profile.unique_start != expected_unique:
            counterexample = Counterexample(
                w,
                {
                    "expected": sorted(expected),
                    "got": sorted(got),
                    "uniqueStart": profile.unique_start,
                },
            )
            return _report(f"construction:{name}", parameters, checked, counterexample, {}, t0)
    return _report(f"construction:{name}", parameters, len(targets), None, {}, t0)
