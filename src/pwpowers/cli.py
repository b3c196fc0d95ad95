"""Command-line interface.

Subcommands: analyze, construct, verify, search (plus `search table`).
Exit codes: 0 success / claim verified, 1 claim refuted (counterexample
printed), 2 usage, parse, or resource-budget errors. With --json exactly one
JSON document is written to stdout, with a fixed key order so identical runs
are byte-identical; no ANSI escapes are ever emitted. Every document is the
text of json.dumps at a 2-space indent. analyze writes its profiles itself,
straight from the scan's start and length columns (_profile_json): CPython
before 3.13 drops to a pure-Python encoder whenever an indent is set, which
cost analyze most of its time; the other documents are a few hundred bytes.
Each occurrence row, in JSON and in text, is two text pieces, one for its
start and one for its length, kept for the process in lists grown to the
longest word seen, so a row costs two list lookups and every profile is
joined once.

The parser registers every command, but gives its arguments and
sub-commands only to the command named first on the command line, the only
one argparse reads, and within construct and verify only to the generator or
claim named second; help, usage and error texts are those of the full tree.

Start-up: at import this module loads only argparse, errors and words. Each
command imports the modules it runs when it runs (construct: constructions;
verify: verify; search: search; analyze: powers and _kernels), so a call
compiles no module its command does not use, and json is imported only where
json.dumps runs. Two names that perfbench/trace.py patches on this module,
power_profile and verify_theorem_sq_bound, stay attributes of it: the module
__getattr__ imports each on its first access and binds it into the module's
globals, and the commands read them from there through _patch_point, so a
patch set on the module (setattr, monkeypatch.setattr) takes effect. analyze
and search call _kernels.occurrence_scan and search.search_max_powers
through their modules, where the tracer wraps them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import BadExponentError, PartialWordError, ResourceLimitError
from .words import Alphabet, PartialWord, format_word, parse_word

# bound on first use by _profile_json: the scan, which only analyze runs
_kernels = _validate_exponent = None


def __getattr__(name):
    # the trace patch points: imported from their module on first access and
    # bound into this module, where _patch_point reads them and a patch set
    # on the module (setattr, monkeypatch) replaces them
    if name == "power_profile":
        from .powers import power_profile as value
    elif name == "verify_theorem_sq_bound":
        from .verify import verify_theorem_sq_bound as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _patch_point(name: str):
    # `cli.<name>` as it now stands: a patch if one is set, else the original
    return globals()[name] if name in globals() else __getattr__(name)


def _print_json(doc) -> None:
    import json

    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _json_list(items, indent: str, pad: str) -> str:
    # a JSON array of already written items, as json.dumps lays it out at
    # indent 2: `indent` before each item, `pad` before the closing bracket
    if not items:
        return "[]"
    return "[%s%s%s]" % (indent, ("," + indent).join(items), pad)


# per pad, the text pieces of _profile_json: (head, tail, number)
_JSON_PIECES: dict = {}


def _profile_json(word: PartialWord, r: int, pad: str) -> str:
    """json.dumps(power_profile(word, r).to_json_dict(), indent=2) for a
    document whose lines after the first start with `pad` (a newline and the
    enclosing indent), written straight from the scan's start and length
    columns, with no profile built. Row (s, L) of the occurrences is
    head[s] + tail[L], each tail ending with the separator before the next
    row, and number[s] is the text of s + 1: cached pieces, grown to the
    longest word seen, gathered into one list and joined once."""
    if _kernels is None:
        _bind_scan()
    _validate_exponent(r)
    i1 = pad + "  "
    i2 = i1 + "  "
    sep = "," + i2
    head, tail, number = _JSON_PIECES.setdefault(pad, ([], [], []))
    if len(number) <= len(word):
        i3 = i2 + "  "
        row_head = "{" + i3 + '"start": %s,' + i3 + '"length": '
        row_tail = "%d" + i2 + "}" + sep
        for s in range(len(number), len(word) + 1):
            number.append(str(s + 1))
            head.append(row_head % number[s])
            tail.append(row_tail % s)
    # through its module, where tracing wraps it
    starts, lengths = _kernels.occurrence_scan(word.codes, r)
    if starts:
        rows = [None] * (2 * len(starts) + 2)
        rows[0] = "[" + i2
        rows[1:-1:2] = map(head.__getitem__, starts)
        rows[2:-1:2] = map(tail.__getitem__, lengths)
        rows[-2] = rows[-2][: -len(sep)]
        rows[-1] = i1 + "]"
        occurrences = "".join(rows)
    else:
        occurrences = "[]"
    # the starts come sorted, so their first occurrences are the sorted set
    positions = list(map(number.__getitem__, dict.fromkeys(starts)))
    return (
        "{" + i1 + '"word": %s,' + i1 + '"r": %d,' + i1 + '"occurrences": %s,'
        + i1 + '"startPositions": %s,' + i1 + '"uniqueStart": %s' + pad + "}"
    ) % (
        # format_word writes only a-z and '.', which JSON strings hold as is
        '"' + format_word(word) + '"',
        r,
        occurrences,
        _json_list(positions, i2, i1),
        positions[0] if len(positions) == 1 else "null",
    )


def _bind_scan() -> None:
    global _kernels, _validate_exponent
    from . import _kernels
    from .powers import _validate_exponent


def _positions_set(positions) -> str:
    return "{" + ",".join(map(str, positions)) + "}"


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


def _int(flag: str, metavar: str, required: bool = True) -> tuple:
    return flag, {"type": int, "required": required, "metavar": metavar}


def _add_level(
    parser: argparse.ArgumentParser, dest: str, chosen: Optional[str], table: dict
) -> None:
    # sub-commands from `table`, name -> (help, options, budget): every one is
    # registered, so usage, help and errors read the same, but argparse reads
    # only the one named on the command line, so only that one gets its
    # options; every one does when `chosen` names none
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, options, budget) in table.items():
        child = sub.add_parser(name, help=help_text)
        if chosen in table and name != chosen:
            continue
        for flag, kwargs in options:
            child.add_argument(flag, **kwargs)
        _add_common(child, budget=budget)


def _add_analyze(pa: argparse.ArgumentParser, _chosen: Optional[str]) -> None:
    pa.add_argument("word", nargs="?", default=None,
                    help="word text: letters a-z, holes '.' or '◊'")
    pa.add_argument("--r", type=int, required=True, metavar="R", help="exponent, >= 2")
    pa.add_argument("--alphabet", type=int, default=None, metavar="K",
                    help="alphabet size (default: inferred from the word)")
    pa.add_argument("--stdin", action="store_true", help="read one word per line from stdin")
    _add_common(pa)


def _add_construct(pc: argparse.ArgumentParser, chosen: Optional[str]) -> None:
    r = _int("--r", "R")
    unchecked = ("--unchecked", {
        "action": "store_true",
        "help": "emit the formula word for any r >= 3, without profile claims",
    })
    _add_level(pc, "generator", chosen, {
        "square-chain": ("doubling family word, k squares from one start",
                         [_int("--k", "K")], None),
        "prop2": ("length-2r word with two r-th powers from one start", [r], None),
        "prop3": ("length-3r word with three r-th powers from one start", [r, unchecked], None),
        "cube-examples": ("the two length-9 three-cube words", [], None),
    })


def _add_verify(pv: argparse.ArgumentParser, chosen: Optional[str]) -> None:
    from .verify import DEFAULT_CHECK_BUDGET as budget

    k, r = _int("--k", "K"), _int("--r", "R")
    n, m = _int("--max-len", "N"), _int("--max-u-len", "M")
    bound = ("--bound", {
        "type": int, "default": None, "metavar": "B",
        "help": "override the asserted bound (default k); probes tightness",
    })
    name = ("--name", {
        "required": True, "choices": ["square-chain", "prop2", "prop3", "cube-examples"],
    })
    _add_level(pv, "claim", chosen, {
        "fine-wilf": ("two strong periods force their gcd on full words", [k, n], budget),
        "corollary-full": ("full words: a doubled power start is never the last start",
                           [r, k, n], budget),
        "lemma-h1": ("multiple same-start squares force hole set {1}", [k, n], budget),
        "lemma-2k": ("long unique-start square forces an interior start", [k, m], budget),
        "lemma-short": ("short matching square forces a square inside v", [k, m], budget),
        "theorem-sq": ("unique-start words carry at most k squares", [k, n, bound], budget),
        "construction": ("re-check a construction's occurrence profile",
                         [name, _int("--k", "K", False), _int("--r", "R", False)], None),
    })


def _add_search(ps: argparse.ArgumentParser, _chosen: Optional[str]) -> None:
    from .search import DEFAULT_NODE_BUDGET

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
    st.add_argument("--csv", action="store_true", help="CSV instead of aligned text")
    _add_common(st, budget=DEFAULT_NODE_BUDGET, jobs=True)


# command name -> (help, function adding its arguments and sub-commands,
# given the word after the command name)
_COMMANDS = {
    "analyze": ("power profile of one word (or stdin batch)", _add_analyze),
    "construct": ("emit an extremal word family member", _add_construct),
    "verify": ("brute-force check of a claim on a bounded space", _add_verify),
    "search": ("exhaustive bounded search for many-power words", _add_search),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    # every command is registered, so usage, help and errors read the same,
    # but argparse reads only the parser of the command named first, so only
    # that one gets its arguments; every one does when argv names none first.
    # One level down, construct and verify fill only the generator or claim
    # named second
    parser = argparse.ArgumentParser(
        prog="pwpowers",
        description="Squares, cubes, and higher powers in partial words: "
        "analysis, constructions, bounded verification, exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_text, add_arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if chosen is None or name == chosen:
            add_arguments(command, argv[1] if chosen and len(argv) > 1 else None)
    return parser


# per exponent, the text pieces of _profile_text: (head, tail)
_TEXT_PIECES: dict = {}


def _profile_text(profile) -> str:
    # occurrence line (S, L) is head[S] + tail[L], each tail ending with its
    # newline: cached pieces, as in _profile_json
    w = profile.word
    r = profile.exponent
    head, tail = _TEXT_PIECES.setdefault(r, ([], []))
    for v in range(len(head), len(w) + 1):
        head.append("  start %d length " % v)
        tail.append("%d root %d\n" % (v, v // r))
    rows = [None] * (2 * len(profile.occurrences))
    if rows:
        starts, lengths, _, _ = zip(*profile.occurrences)
        rows[0::2] = map(head.__getitem__, starts)
        rows[1::2] = map(tail.__getitem__, lengths)
    unique = profile.unique_start
    return (
        "word: %s\nlength: %d\nalphabet: %d\ndefined: %s\nholes: %s\n"
        "occurrences (r=%d): %d\n%sstart positions: %s\nunique start: %s"
    ) % (
        format_word(w),
        len(w),
        w.alphabet.size,
        _positions_set(w.defined_positions()),
        _positions_set(w.hole_positions()),
        r,
        len(profile.occurrences),
        "".join(rows),
        _positions_set(profile.start_positions),
        unique if unique is not None else "-",
    )


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
    # each profile is written as soon as it is found, and printed once every
    # line has parsed, so an error leaves stdout empty
    pad = "\n  " if args.stdin else "\n"
    power_profile = None if args.json else _patch_point("power_profile")
    out = []
    for idx, text in texts:
        try:
            word = parse_word(text, alphabet)
        except PartialWordError as exc:
            where = f"line {idx}: " if args.stdin else ""
            print(f"analyze: {where}{exc}", file=sys.stderr)
            return 2
        if args.json:
            out.append(_profile_json(word, args.r, pad))
        else:
            out.append(_profile_text(power_profile(word, args.r)))
    if not args.json:
        print("\n\n".join(out))
    elif args.stdin:
        print(_json_list(out, pad, "\n"))
    else:
        print(out[0])
    return 0


def _run_construct(args) -> int:
    from .constructions import cube_examples, prop2_word, prop3_word, square_chain

    if args.generator == "square-chain":
        words = [square_chain(args.k)]
        parameters = {"k": args.k}
    elif args.generator == "prop2":
        words = [prop2_word(args.r)]
        parameters = {"r": args.r}
    elif args.generator == "prop3":
        try:
            words = [prop3_word(args.r, unchecked=args.unchecked)]
        except BadExponentError as exc:
            # the hint names the flag that sets prop3_word's keyword
            raise BadExponentError(str(exc).replace("unchecked=True", "--unchecked")) from None
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


def _report_text(report) -> str:
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
    from . import verify

    if args.claim == "fine-wilf":
        report = verify.verify_fine_wilf(args.k, args.max_len, budget=args.budget)
    elif args.claim == "corollary-full":
        report = verify.verify_corollary_full(args.r, args.k, args.max_len, budget=args.budget)
    elif args.claim == "lemma-h1":
        report = verify.verify_lemma_h1(args.k, args.max_len, budget=args.budget)
    elif args.claim == "lemma-2k":
        report = verify.verify_lemma_2k(args.k, args.max_u_len, budget=args.budget)
    elif args.claim == "lemma-short":
        report = verify.verify_lemma_short(args.k, args.max_u_len, budget=args.budget)
    elif args.claim == "theorem-sq":
        report = _patch_point("verify_theorem_sq_bound")(
            args.k, args.max_len, bound=args.bound, budget=args.budget
        )
    else:
        report = verify.verify_construction(args.name, k=args.k, r=args.r)
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
    from . import search

    if args.search_cmd == "table":
        cells = search.lower_bound_table(
            range(args.r_min, args.r_max + 1),
            range(args.k_min, args.k_max + 1),
            args.max_len,
            t=args.t,
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
    query = search.SearchQuery(
        exponent=args.r,
        alphabet_size=args.k,
        max_len=args.max_len,
        max_start_positions=args.t,
        witness_cap=args.witness_cap,
    )
    # through its module, where tracing wraps it, as lower_bound_table does
    result = search.search_max_powers(query, budget=args.budget, jobs=args.jobs)
    if args.json:
        _print_json(result.to_json_dict())
    else:
        print(_search_text(result))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    if args.command == "search" and args.search_cmd == "table":
        # argparse lets `table`'s defaults overwrite the options given before
        # it, and `search` alone has no positional, so anything between the
        # two words is an option that would be dropped
        ahead = argv[1:argv.index("table")]
        if ahead:
            parser.error(f"search table: option {ahead[0].split('=')[0]} "
                         "given before 'table' is not read; table options go after it")
    try:
        if args.command == "analyze":
            code = _run_analyze(args)
        elif args.command == "construct":
            code = _run_construct(args)
        elif args.command == "verify":
            code = _run_verify(args)
        else:
            code = _run_search(args)
        sys.stdout.flush()  # so that a reader gone early shows here
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point stdout at the null
        # device, so that the flush at exit raises nothing, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
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
