"""Command-line interface.

Subcommands: analyze, construct, verify, search (plus `search table`).
Exit codes: 0 success / claim verified, 1 claim refuted (counterexample
printed), 2 usage, parse, or resource-budget errors. With --json exactly one
JSON document is written to stdout, with a fixed key order so identical runs
are byte-identical; no ANSI escapes are ever emitted.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from .constructions import cube_examples, prop2_word, prop3_word, square_chain
from .errors import PartialWordError, ResourceLimitError
from .powers import power_profile
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchQuery,
    lower_bound_table,
    search_max_powers,
)
from .verify import (
    DEFAULT_CHECK_BUDGET,
    VerificationReport,
    verify_construction,
    verify_corollary_full,
    verify_fine_wilf,
    verify_lemma_2k,
    verify_lemma_short,
    verify_lemma_h1,
    verify_theorem_sq_bound,
)
from .words import Alphabet, PartialWord, format_word, parse_word

_INF = float("inf")


def _json_text(doc, newline: str = "\n") -> str:
    """The stdlib json encoder's text for doc at a 2-space indent, by its
    type rules: str, None/True/False, int, float, list/tuple, dict.

    CPython before 3.13 ignores its C encoder when an indent is set and walks
    every value through a pure-Python generator; joining each container's
    items here, with the C string escaper, builds the same text in about
    half the time.
    """
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        if doc != doc:
            return "NaN"
        if doc == _INF:
            return "Infinity"
        if doc == -_INF:
            return "-Infinity"
        return float.__repr__(doc)
    # plain ints, most of the values in an analyze document, are written
    # without a call; bools and int subclasses take the path above
    inner = newline + "  "
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = [int.__repr__(v) if v.__class__ is int else _json_text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": "
            + (int.__repr__(v) if v.__class__ is int else _json_text(v, inner))
            for k, v in doc.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {doc.__class__.__name__} is not JSON serializable")


def _print_json(doc) -> None:
    sys.stdout.write(_json_text(doc) + "\n")


def _positions_set(positions) -> str:
    return "{" + ",".join(str(p) for p in positions) + "}"


def _add_common(
    parser: argparse.ArgumentParser, budget: Optional[int] = None, jobs: bool = False
) -> None:
    # --json everywhere; --jobs and --budget (defaulting to `budget`) only
    # where the command reads them
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1, metavar="J",
                            help="worker processes (results are identical for any value)")
    if budget is not None:
        parser.add_argument("--budget", type=int, default=budget, metavar="B",
                            help="enumeration budget override (words checked / nodes explored)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwpowers",
        description="Squares, cubes, and higher powers in partial words: "
        "analysis, constructions, bounded verification, exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="power profile of one word (or stdin batch)")
    pa.add_argument("word", nargs="?", default=None,
                    help="word text: letters a-z, holes '.' or '◊'")
    pa.add_argument("--r", type=int, required=True, metavar="R", help="exponent, >= 2")
    pa.add_argument("--alphabet", type=int, default=None, metavar="K",
                    help="alphabet size (default: inferred from the word)")
    pa.add_argument("--stdin", action="store_true", help="read one word per line from stdin")
    _add_common(pa)

    pc = sub.add_parser("construct", help="emit an extremal word family member")
    csub = pc.add_subparsers(dest="generator", required=True)
    cc = csub.add_parser("square-chain", help="doubling family word, k squares from one start")
    cc.add_argument("--k", type=int, required=True, metavar="K")
    _add_common(cc)
    c2 = csub.add_parser("prop2", help="length-2r word with two r-th powers from one start")
    c2.add_argument("--r", type=int, required=True, metavar="R")
    _add_common(c2)
    c3 = csub.add_parser("prop3", help="length-3r word with three r-th powers from one start")
    c3.add_argument("--r", type=int, required=True, metavar="R")
    c3.add_argument("--unchecked", action="store_true",
                    help="emit the formula word for any r >= 3, without profile claims")
    _add_common(c3)
    ce = csub.add_parser("cube-examples", help="the two length-9 three-cube words")
    _add_common(ce)

    pv = sub.add_parser("verify", help="brute-force check of a claim on a bounded space")
    vsub = pv.add_subparsers(dest="claim", required=True)
    vf = vsub.add_parser("fine-wilf", help="two strong periods force their gcd on full words")
    vf.add_argument("--k", type=int, required=True, metavar="K")
    vf.add_argument("--max-len", type=int, required=True, metavar="N")
    _add_common(vf, budget=DEFAULT_CHECK_BUDGET)
    vc = vsub.add_parser("corollary-full",
                         help="full words: a doubled power start is never the last start")
    vc.add_argument("--r", type=int, required=True, metavar="R")
    vc.add_argument("--k", type=int, required=True, metavar="K")
    vc.add_argument("--max-len", type=int, required=True, metavar="N")
    _add_common(vc, budget=DEFAULT_CHECK_BUDGET)
    vh = vsub.add_parser("lemma-h1",
                         help="multiple same-start squares force hole set {1}")
    vh.add_argument("--k", type=int, required=True, metavar="K")
    vh.add_argument("--max-len", type=int, required=True, metavar="N")
    _add_common(vh, budget=DEFAULT_CHECK_BUDGET)
    v2 = vsub.add_parser("lemma-2k", help="long unique-start square forces an interior start")
    v2.add_argument("--k", type=int, required=True, metavar="K")
    v2.add_argument("--max-u-len", type=int, required=True, metavar="M")
    _add_common(v2, budget=DEFAULT_CHECK_BUDGET)
    vs = vsub.add_parser("lemma-short", help="short matching square forces a square inside v")
    vs.add_argument("--k", type=int, required=True, metavar="K")
    vs.add_argument("--max-u-len", type=int, required=True, metavar="M")
    _add_common(vs, budget=DEFAULT_CHECK_BUDGET)
    vt = vsub.add_parser("theorem-sq", help="unique-start words carry at most k squares")
    vt.add_argument("--k", type=int, required=True, metavar="K")
    vt.add_argument("--max-len", type=int, required=True, metavar="N")
    vt.add_argument("--bound", type=int, default=None, metavar="B",
                    help="override the asserted bound (default k); probes tightness")
    _add_common(vt, budget=DEFAULT_CHECK_BUDGET)
    vx = vsub.add_parser("construction", help="re-check a construction's occurrence profile")
    vx.add_argument("--name", required=True,
                    choices=["square-chain", "prop2", "prop3", "cube-examples"])
    vx.add_argument("--k", type=int, default=None, metavar="K")
    vx.add_argument("--r", type=int, default=None, metavar="R")
    _add_common(vx)

    ps = sub.add_parser("search", help="exhaustive bounded search for many-power words")
    ssub = ps.add_subparsers(dest="search_cmd")
    ps.add_argument("--r", type=int, default=None, metavar="R")
    ps.add_argument("--k", type=int, default=None, metavar="K")
    ps.add_argument("--max-len", type=int, default=None, metavar="N")
    ps.add_argument("--t", type=int, default=1, metavar="T",
                    help="max distinct occurrence starts (default 1)")
    ps.add_argument("--witness-cap", type=int, default=16, metavar="C")
    _add_common(ps, budget=DEFAULT_NODE_BUDGET, jobs=True)
    st = ssub.add_parser("table", help="grid of bounded searches over (r, k) cells")
    st.add_argument("--r-min", type=int, required=True, metavar="R0")
    st.add_argument("--r-max", type=int, required=True, metavar="R1")
    st.add_argument("--k-min", type=int, required=True, metavar="K0")
    st.add_argument("--k-max", type=int, required=True, metavar="K1")
    st.add_argument("--max-len", type=int, required=True, metavar="N")
    st.add_argument("--t", type=int, default=1, metavar="T")
    st.add_argument("--witness-cap", type=int, default=4, metavar="C")
    st.add_argument("--csv", action="store_true", help="CSV instead of aligned text")
    _add_common(st, budget=DEFAULT_NODE_BUDGET, jobs=True)

    return parser


def _profile_text(profile) -> str:
    w = profile.word
    lines = [
        f"word: {format_word(w)}",
        f"length: {len(w)}",
        f"alphabet: {w.alphabet.size}",
        f"defined: {_positions_set(w.defined_positions())}",
        f"holes: {_positions_set(w.hole_positions())}",
        f"occurrences (r={profile.exponent}): {len(profile.occurrences)}",
    ]
    for o in profile.occurrences:
        lines.append(f"  start {o.start} length {o.length} root {o.root_length}")
    lines.append(f"start positions: {_positions_set(profile.start_positions)}")
    unique = profile.unique_start
    lines.append(f"unique start: {unique if unique is not None else '-'}")
    return "\n".join(lines)


def _run_analyze(args) -> int:
    alphabet = Alphabet(args.alphabet) if args.alphabet is not None else None
    if args.stdin and args.word is not None:
        print("analyze: give a word argument or --stdin, not both", file=sys.stderr)
        return 2
    if not args.stdin and args.word is None:
        print("analyze: a word argument (or --stdin) is required", file=sys.stderr)
        return 2
    # (physical line number, text); blank lines are skipped after numbering
    texts = (
        [(idx, line.strip()) for idx, line in enumerate(sys.stdin, start=1) if line.strip()]
        if args.stdin
        else [(None, args.word)]
    )
    profiles = []
    for idx, text in texts:
        try:
            word = parse_word(text, alphabet)
        except PartialWordError as exc:
            where = f"line {idx}: " if args.stdin else ""
            print(f"analyze: {where}{exc}", file=sys.stderr)
            return 2
        profiles.append(power_profile(word, args.r))
    if args.json:
        docs = [p.to_json_dict() for p in profiles]
        _print_json(docs if args.stdin else docs[0])
    else:
        print("\n\n".join(_profile_text(p) for p in profiles))
    return 0


def _run_construct(args) -> int:
    if args.generator == "square-chain":
        words = [square_chain(args.k)]
        parameters = {"k": args.k}
    elif args.generator == "prop2":
        words = [prop2_word(args.r)]
        parameters = {"r": args.r}
    elif args.generator == "prop3":
        words = [prop3_word(args.r, unchecked=args.unchecked)]
        parameters = {"r": args.r, "unchecked": args.unchecked}
    else:
        words = cube_examples()
        parameters = {}
    if args.json:
        _print_json(
            {
                "name": args.generator,
                "parameters": parameters,
                "words": [format_word(w) for w in words],
            }
        )
    else:
        for w in words:
            print(format_word(w))
    return 0


def _report_text(report: VerificationReport) -> str:
    params = " ".join(f"{key}={value}" for key, value in report.parameters.items())
    lines = [
        f"claim: {report.claim}",
        f"parameters: {params}",
        f"instances checked: {report.instances_checked}",
        f"outcome: {report.outcome.upper()}",
    ]
    if report.counterexample is not None:
        lines.append(f"counterexample: {format_word(report.counterexample.word)}")
        for key, value in report.counterexample.context.items():
            lines.append(f"  {key}: {value}")
    for key, value in report.findings.items():
        lines.append(f"{key}: {value}")
    lines.append(f"elapsed: {report.elapsed_seconds:.3f}s")
    return "\n".join(lines)


def _run_verify(args) -> int:
    if args.claim == "fine-wilf":
        report = verify_fine_wilf(args.k, args.max_len, budget=args.budget)
    elif args.claim == "corollary-full":
        report = verify_corollary_full(args.r, args.k, args.max_len, budget=args.budget)
    elif args.claim == "lemma-h1":
        report = verify_lemma_h1(args.k, args.max_len, budget=args.budget)
    elif args.claim == "lemma-2k":
        report = verify_lemma_2k(args.k, args.max_u_len, budget=args.budget)
    elif args.claim == "lemma-short":
        report = verify_lemma_short(args.k, args.max_u_len, budget=args.budget)
    elif args.claim == "theorem-sq":
        report = verify_theorem_sq_bound(
            args.k, args.max_len, bound=args.bound, budget=args.budget
        )
    else:
        report = verify_construction(args.name, k=args.k, r=args.r)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        print(_report_text(report))
    return 0 if report.passed else 1


def _search_text(result) -> str:
    lines = [f"best count: {result.best_count}", f"witnesses ({len(result.witnesses)}):"]
    for w in result.witnesses:
        lines.append(f"  {format_word(w)}")
    lines.extend(
        [
            f"nodes explored: {result.nodes_explored}",
            f"pruned by symmetry: {result.pruned_by_symmetry}",
            f"pruned by start bound: {result.pruned_by_start_bound}",
            f"exhaustive: {'yes' if result.exhaustive else 'no'}",
        ]
    )
    return "\n".join(lines)


def _run_search(args) -> int:
    if args.search_cmd == "table":
        cells = lower_bound_table(
            range(args.r_min, args.r_max + 1),
            range(args.k_min, args.k_max + 1),
            args.max_len,
            t=args.t,
            witness_cap=args.witness_cap,
            budget=args.budget,
            jobs=args.jobs,
        )
        rows = [cell.to_json_dict() for cell in cells]
        if args.json:
            _print_json(rows)
            return 0
        header = ["r", "k", "maxLen", "best", "exhaustive", "known", "flag", "witness"]
        table = [
            [
                str(row["r"]),
                str(row["k"]),
                str(row["maxLen"]),
                str(row["bestCount"]),
                "yes" if row["exhaustive"] else "no",
                "-" if row["knownBound"] is None
                else ("=" if row["knownExact"] else ">=") + str(row["knownBound"]),
                row["flag"] or "-",
                row["witness"] if row["witness"] is not None else "-",
            ]
            for row in rows
        ]
        if args.csv:
            import csv

            writer = csv.writer(sys.stdout)
            writer.writerow(header)
            writer.writerows(table)
        else:
            widths = [max(len(h), *(len(r[i]) for r in table)) if table else len(h)
                      for i, h in enumerate(header)]
            print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
            for r in table:
                print("  ".join(r[i].ljust(widths[i]) for i in range(len(header))).rstrip())
        return 0

    missing = [name for name, val in (("--r", args.r), ("--k", args.k), ("--max-len", args.max_len))
               if val is None]
    if missing:
        print(f"search: missing required options: {', '.join(missing)}", file=sys.stderr)
        return 2
    query = SearchQuery(
        exponent=args.r,
        alphabet_size=args.k,
        max_len=args.max_len,
        max_start_positions=args.t,
        witness_cap=args.witness_cap,
    )
    result = search_max_powers(query, budget=args.budget, jobs=args.jobs)
    if args.json:
        _print_json(result.to_json_dict())
    else:
        print(_search_text(result))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and args.search_cmd == "table":
        # argparse lets `table`'s defaults overwrite the options given before
        # it, and `search` alone has no positional, so anything between the
        # two words is an option that would be dropped
        argv = sys.argv[1:] if argv is None else argv
        ahead = argv[1:argv.index("table")]
        if ahead:
            parser.error(f"search table: option {ahead[0].split('=')[0]} "
                         "given before 'table' is not read; table options go after it")
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "construct":
            return _run_construct(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_search(args)
    except ResourceLimitError as exc:
        print(f"pwpowers: {exc}", file=sys.stderr)
        return 2
    except (PartialWordError, ValueError) as exc:
        print(f"pwpowers: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"pwpowers: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
