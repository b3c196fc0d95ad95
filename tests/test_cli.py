"""End-to-end command-line checks through real subprocesses: output shapes,
exit codes, JSON round-trips, and run-to-run byte identity; plus analyze's
profile writer against the stdlib encoder, and the parser built for one
command against the parser of every command."""

import argparse
import io
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwpowers import _kernels, cli, power_profile
from helpers import class_occurrences, to_word, word

PKG = [sys.executable, "-m", "pwpowers"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        PKG + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestAnalyze:
    def test_text_output(self):
        res = run_cli("analyze", ".aba", "--r", "2")
        assert res.returncode == 0
        assert res.stdout == (
            "word: .aba\n"
            "length: 4\n"
            "alphabet: 2\n"
            "defined: {2,3,4}\n"
            "holes: {1}\n"
            "occurrences (r=2): 2\n"
            "  start 1 length 2 root 1\n"
            "  start 1 length 4 root 2\n"
            "start positions: {1}\n"
            "unique start: 1\n"
        )

    def test_json_round_trips_byte_identically(self):
        res = run_cli("analyze", "a.bac.acb", "--r", "3", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["word"] == "a.bac.acb"
        assert doc["r"] == 3
        assert doc["occurrences"] == [{"start": 1, "length": 9}]
        assert doc["startPositions"] == [1]
        assert doc["uniqueStart"] == 1
        assert json.dumps(doc, indent=2) + "\n" == res.stdout

    def test_unique_start_null(self):
        res = run_cli("analyze", "aaa", "--r", "2", "--json")
        doc = json.loads(res.stdout)
        assert doc["uniqueStart"] is None
        assert doc["startPositions"] == [1, 2]

    def test_parse_error_reports_position(self):
        res = run_cli("analyze", "a$b", "--r", "2")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "position 2" in res.stderr

    def test_alphabet_cap_enforced(self):
        res = run_cli("analyze", "abc", "--r", "2", "--alphabet", "2")
        assert res.returncode == 2
        assert "position 3" in res.stderr

    def test_stdin_batch_json(self):
        res = run_cli("analyze", "--r", "2", "--stdin", "--json",
                      stdin=".aba\n\naaaa\n")
        assert res.returncode == 0
        docs = json.loads(res.stdout)
        assert [d["word"] for d in docs] == [".aba", "aaaa"]
        assert [len(d["occurrences"]) for d in docs] == [2, 4]
        assert json.dumps(docs, indent=2) + "\n" == res.stdout
        for stdin in ("", "\n  \n\n"):
            res = run_cli("analyze", "--r", "2", "--stdin", "--json", stdin=stdin)
            assert res.returncode == 0
            assert res.stdout == "[]\n"

    def test_stdin_parse_error_names_line(self):
        res = run_cli("analyze", "--r", "2", "--stdin", stdin="aa\na?a\n")
        assert res.returncode == 2
        assert "line 2" in res.stderr
        # blank lines count: the error is on physical line 3
        res = run_cli("analyze", "--r", "2", "--stdin", stdin="abab\n\nabz1\n")
        assert res.returncode == 2
        assert "line 3:" in res.stderr
        assert "line 2" not in res.stderr
        # with --json nothing is printed unless every line parses
        res = run_cli("analyze", "--r", "2", "--stdin", "--json", stdin="abab\naaaa\nab?\n")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "line 3:" in res.stderr

    def test_word_and_stdin_are_exclusive(self):
        assert run_cli("analyze", "aa", "--r", "2", "--stdin").returncode == 2
        assert run_cli("analyze", "--r", "2").returncode == 2

    def test_bad_exponent(self):
        assert run_cli("analyze", "aa", "--r", "1").returncode == 2

    def test_json_batch_matches_class_oracle(self):
        # the expected document is built from the residue-class definition of
        # a power, not from the scan, and written by the stdlib encoder; the
        # fixed words give each exponent a word with one power start
        rng = random.Random(20)
        texts = [".aba", "..aba.ba.", "...aba.."]
        for _ in range(40):
            holes = rng.random() / 2
            texts.append("".join("." if rng.random() < holes else rng.choice("abc")
                                 for _ in range(rng.randint(1, 60))))
        for r in (2, 3, 4):
            docs = []
            for text in texts:
                rows = class_occurrences([".abc".index(ch) for ch in text], r)
                starts = sorted({s + 1 for s, _ in rows})
                docs.append({
                    "word": text,
                    "r": r,
                    "occurrences": [{"start": s + 1, "length": n} for s, n in rows],
                    "startPositions": starts,
                    "uniqueStart": starts[0] if len(starts) == 1 else None,
                })
            # the batch holds words with no start, with one and with several
            assert {min(len(d["startPositions"]), 2) for d in docs} == {0, 1, 2}, r
            res = run_cli("analyze", "--stdin", "--r", str(r), "--json",
                          stdin="\n".join(texts) + "\n")
            assert res.returncode == 0, res.stderr
            assert res.stdout == json.dumps(docs, indent=2) + "\n", r

    def test_text_batch_matches_class_oracle(self, monkeypatch, capsys):
        # text mode's occurrence lines and sets, from the residue-class
        # definition of a power, not from the scan; the words come in lengths
        # that go up and down, and every exponent runs in this process, so
        # the cached pieces grow and are reread
        rng = random.Random(21)
        texts = [".aba", "aaaa", "ab"]
        for _ in range(40):
            holes = rng.random() / 2
            texts.append("".join("." if rng.random() < holes else rng.choice("abc")
                                 for _ in range(rng.randint(1, 60))))
        for r in (2, 3, 5):
            blocks = []
            for text in texts:
                codes = [".abc".index(ch) for ch in text]
                rows = class_occurrences(codes, r)
                starts = sorted({s + 1 for s, _ in rows})
                blocks.append("\n".join([
                    f"word: {text}",
                    f"length: {len(text)}",
                    f"alphabet: {max(max(codes), 1)}",
                    "defined: {%s}" % ",".join(str(i + 1) for i, c in enumerate(codes) if c),
                    "holes: {%s}" % ",".join(str(i + 1) for i, c in enumerate(codes) if not c),
                    f"occurrences (r={r}): {len(rows)}",
                    *(f"  start {s + 1} length {n} root {n // r}" for s, n in rows),
                    "start positions: {%s}" % ",".join(map(str, starts)),
                    f"unique start: {starts[0] if len(starts) == 1 else '-'}",
                ]))
            monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(texts) + "\n"))
            assert cli.main(["analyze", "--stdin", "--r", str(r)]) == 0
            assert capsys.readouterr() == ("\n\n".join(blocks) + "\n", ""), r


# a partial word of length 0..40 over k = 1..4 letters, holes included, and
# an exponent 2..5
word_exponents = st.tuples(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.integers(0, k), max_size=40).map(lambda c: to_word(c, k))
    ),
    st.integers(2, 5),
)


class TestProfileJson:
    """_profile_json, which writes analyze's --json profiles, against the
    stdlib encoder on PowerProfile.to_json_dict, alone and in the --stdin
    array."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(word_exponents, max_size=3))
    @example([])
    @example([(word("ab"), 2)])  # no occurrence
    @example([(word(".aba"), 2)])  # one start
    @example([(word("aaa.a"), 2), (word("..b.....", 3), 3)])
    def test_matches_stdlib(self, cases):
        docs = [power_profile(w, r).to_json_dict() for w, r in cases]
        for (w, r), doc in zip(cases, docs):
            assert cli._profile_json(w, r, "\n") == json.dumps(doc, indent=2)
        array = cli._json_list([cli._profile_json(w, r, "\n  ") for w, r in cases], "\n  ", "\n")
        assert array == json.dumps(docs, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(word_exponents, st.sampled_from(["\n", "\n  "])), max_size=8))
    # whole powers, whose last row reads the tail of the word's own length,
    # after a longer and before a shorter word, under both pads
    @example([((word("ab" * 20), 2), "\n"), ((word("abab"), 2), "\n"),
              ((word("a.a.a"), 5), "\n  "), ((word("..b.....", 3), 4), "\n"),
              ((word("aaa"), 3), "\n  "), ((word("ab" * 15 + "."), 2), "\n  ")])
    def test_cached_pieces_in_sequence(self, cases):
        # the pieces are cached per pad across calls, grown to the longest
        # word seen; here they start empty, and each sequence mixes lengths
        # that go up and down with both pads in one process
        cli._JSON_PIECES.clear()
        for (w, r), pad in cases:
            expected = json.dumps(power_profile(w, r).to_json_dict(), indent=2)
            assert cli._profile_json(w, r, pad) == expected.replace("\n", pad)


class TestConstruct:
    def test_square_chain_text(self):
        res = run_cli("construct", "square-chain", "--k", "3")
        assert res.returncode == 0
        assert res.stdout == ".abacaba\n"

    def test_prop2(self):
        res = run_cli("construct", "prop2", "--r", "4", "--json")
        doc = json.loads(res.stdout)
        assert doc == {"name": "prop2", "parameters": {"r": 4}, "words": ["...aba.."]}
        assert json.dumps(doc, indent=2) + "\n" == res.stdout

    def test_prop3_exponent_gate(self):
        assert run_cli("construct", "prop3", "--r", "6").returncode == 2
        res = run_cli("construct", "prop3", "--r", "6", "--unchecked")
        assert res.returncode == 0
        assert res.stdout == ".....aba....baa...\n"
        assert run_cli("construct", "prop3", "--r", "2", "--unchecked").returncode == 2

    def test_prop3_gate_names_the_flag(self):
        # the hint names the CLI flag, not prop3_word's keyword
        res = run_cli("construct", "prop3", "--r", "4")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (
            "pwpowers: exponent must be an odd multiple of 3 (3, 9, 15, ...), got 4; "
            "pass --unchecked to emit the formula word anyway\n"
        )

    def test_cube_examples(self):
        res = run_cli("construct", "cube-examples")
        assert res.returncode == 0
        assert res.stdout == "..aba.baa\n..aba.ba.\n"

    def test_alphabet_too_small(self):
        assert run_cli("construct", "square-chain", "--k", "27").returncode == 2


class TestVerify:
    def test_pass_gives_exit_zero(self):
        res = run_cli("verify", "theorem-sq", "--k", "2", "--max-len", "6")
        assert res.returncode == 0
        assert "outcome: PASS" in res.stdout

    def test_refuted_bound_gives_exit_one(self):
        res = run_cli("verify", "theorem-sq", "--k", "2", "--max-len", "6",
                      "--bound", "1")
        assert res.returncode == 1
        assert "counterexample: .aba" in res.stdout

    def test_budget_exhaustion_gives_exit_two(self):
        res = run_cli("verify", "theorem-sq", "--k", "2", "--max-len", "6",
                      "--budget", "3")
        assert res.returncode == 2
        assert "budget" in res.stderr

    def test_default_budget_stops_a_huge_space_quickly(self):
        # about 5.7e36 words: the run must stop at the budget, not walk them
        t0 = time.perf_counter()
        res = run_cli("verify", "theorem-sq", "--k", "3", "--max-len", "60")
        elapsed = time.perf_counter() - t0
        assert res.returncode == 2
        assert "100000001 words produced" in res.stderr
        assert elapsed < 5

    @pytest.mark.parametrize("argv", [
        ("theorem-sq", "--k", "2"),
        ("lemma-h1", "--k", "2"),
        ("corollary-full", "--r", "2", "--k", "2", "--budget", "5"),
    ])
    def test_huge_max_len_stops_at_the_budget(self, argv, capsys):
        # nothing may be sized by --max-len itself: a buffer of 10^12
        # symbols does not fit in memory
        assert cli.main(["verify", *argv, "--max-len", "1000000000000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "enumeration exceeded the check budget" in err

    def test_json_report(self):
        res = run_cli("verify", "fine-wilf", "--k", "2", "--max-len", "8", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert list(doc.keys()) == [
            "claim", "parameters", "instancesChecked", "outcome",
            "counterexample", "findings", "elapsedSeconds",
        ]
        assert doc["outcome"] == "pass"
        assert doc["instancesChecked"] == 255
        assert doc["counterexample"] is None
        assert json.dumps(doc, indent=2) + "\n" == res.stdout

    def test_construction_check(self):
        res = run_cli("verify", "construction", "--name", "cube-examples")
        assert res.returncode == 0
        res = run_cli("verify", "construction", "--name", "prop3", "--r", "9")
        assert res.returncode == 0
        res = run_cli("verify", "construction", "--name", "prop2")
        assert res.returncode == 2  # --r is required for this family

    def test_construction_rejects_unused_parameter(self):
        res = run_cli("verify", "construction", "--name", "prop3", "--r", "9", "--k", "5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "prop3 takes no parameter k" in res.stderr


# every verify claim's pass case, the refuted --bound 1 probe, one budget
# stop per claim and a validation error, plus fine-wilf over one letter at
# lengths 60 and 61 (past the cap it once had), over three letters and under
# a negative budget, each in text and --json, as the CLI printed them with
# the wall-clock fields masked
VERIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "verify_cli_golden.json").read_text(encoding="utf-8")
)


def _mask_elapsed(text):
    text = re.sub(r"elapsed: \d+\.\d+s", "elapsed: -", text)
    return re.sub(r'"elapsedSeconds": [-+.e\d]+', '"elapsedSeconds": -', text)


@pytest.mark.parametrize("case", VERIFY_GOLDEN, ids=lambda case: case["argv"])
def test_verify_golden(case, capsys):
    code = cli.main(case["argv"].split())
    out, err = capsys.readouterr()
    assert (code, _mask_elapsed(out), _mask_elapsed(err)) == (
        case["exit"], case["stdout"], case["stderr"]
    )


class TestSearch:
    def test_json_shape(self):
        res = run_cli("search", "--r", "2", "--k", "2", "--max-len", "4", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert list(doc.keys()) == [
            "bestCount", "witnesses", "nodesExplored",
            "prunedBySymmetry", "prunedByStartBound", "exhaustive",
        ]
        assert doc["bestCount"] == 2
        assert doc["witnesses"] == [".aba"]
        assert doc["exhaustive"] is True
        assert json.dumps(doc, indent=2) + "\n" == res.stdout

    def test_missing_options(self):
        res = run_cli("search", "--r", "2")
        assert res.returncode == 2
        assert "--k" in res.stderr and "--max-len" in res.stderr

    def test_budgeted_search_is_not_an_error(self):
        res = run_cli("search", "--r", "2", "--k", "2", "--max-len", "6",
                      "--budget", "10", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["exhaustive"] is False

    def test_huge_max_len_with_small_budget(self):
        # kernel state and witness rows must grow with the depth a budget
        # can reach, not with max-len: a dense per-length table for 100000
        # symbols, or a witness row of 10^12, does not fit in memory
        for max_len, budget, nodes, pruned_start, exhaustive, jobs in (
            ("100000", "50", 50, 31, False, "1"),
            ("100000", "50", 50, 31, False, "2"),
            # the r=2, k=2, t=1 search tree is finite: 58 nodes in all
            ("1000000000000", "100", 58, 38, True, "1"),
            ("1000000000000", "100", 58, 38, True, "2"),
        ):
            res = run_cli("search", "--r", "2", "--k", "2", "--max-len", max_len,
                          "--budget", budget, "--json", "--jobs", jobs)
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout) == {
                "bestCount": 2,
                "witnesses": [".aba"],
                "nodesExplored": nodes,
                "prunedBySymmetry": 3,
                "prunedByStartBound": pruned_start,
                "exhaustive": exhaustive,
            }

    def test_jobs_are_byte_identical(self):
        base = run_cli("search", "--r", "3", "--k", "2", "--max-len", "9", "--json")
        for jobs in ("2", "8"):
            res = run_cli("search", "--r", "3", "--k", "2", "--max-len", "9",
                          "--json", "--jobs", jobs)
            assert res.stdout == base.stdout
        assert json.loads(base.stdout)["bestCount"] == 3

    def test_table_jobs_are_byte_identical(self):
        # t=1 cells run in this process; at t=2 the cells share one pool of
        # real worker processes, and the budgeted run stops inside it
        for extra in ((), ("--t", "2"), ("--t", "2", "--budget", "3000")):
            argv = ("search", "table", "--r-min", "2", "--r-max", "4", "--k-min", "1",
                    "--k-max", "2", "--max-len", "9", "--json", *extra)
            base = run_cli(*argv)
            res = run_cli(*argv, "--jobs", "2")
            assert (res.returncode, res.stdout) == (0, base.stdout), extra
            cells = json.loads(base.stdout)
            assert len(cells) == 6
            assert all(c["exhaustive"] for c in cells) == ("--budget" not in extra), extra

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched kernel reaches the workers only by fork")
    def test_dead_worker_is_one_error_line(self, monkeypatch, capsys):
        # a worker the OS kills (say, for memory) breaks the pool; the survey
        # runs in this process, every partition in a worker. A t=1 table
        # opens no pool, so the table runs at t=2
        kernel, parent = _kernels.search_kernel, os.getpid()

        def dying_kernel(*args):
            if os.getpid() != parent:
                os._exit(3)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "search_kernel", dying_kernel)
        for argv in (["search", "--r", "3", "--k", "2", "--max-len", "9"],
                     ["search", "table", "--r-min", "3", "--r-max", "4", "--k-min", "2",
                      "--k-max", "2", "--max-len", "9", "--t", "2"]):
            code = cli.main([*argv, "--json", "--jobs", "2"])
            out, err = capsys.readouterr()
            assert (code, out) == (2, ""), argv
            assert err.startswith("pwpowers: a search worker process died: ")
            assert err.count("\n") == 1

    def test_table_text(self):
        res = run_cli("search", "table", "--r-min", "2", "--r-max", "3",
                      "--k-min", "1", "--k-max", "2", "--max-len", "4")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].split() == [
            "r", "k", "maxLen", "best", "exhaustive", "known", "flag", "witness",
        ]
        assert len(lines) == 5
        assert lines[2].split() == ["2", "2", "4", "2", "yes", "=2", "-", ".aba"]

    def test_table_csv(self):
        res = run_cli("search", "table", "--r-min", "2", "--r-max", "2",
                      "--k-min", "2", "--k-max", "2", "--max-len", "4", "--csv")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "r,k,maxLen,best,exhaustive,known,flag,witness"
        assert lines[1] == "2,2,4,2,yes,=2,-,.aba"

    def test_table_json(self):
        res = run_cli("search", "table", "--r-min", "2", "--r-max", "2",
                      "--k-min", "2", "--k-max", "2", "--max-len", "4", "--json")
        rows = json.loads(res.stdout)
        assert len(rows) == 1
        assert rows[0]["bestCount"] == 2
        assert rows[0]["knownBound"] == 2
        assert rows[0]["knownExact"] is True
        assert rows[0]["flag"] == ""
        assert json.dumps(rows, indent=2) + "\n" == res.stdout

    def test_table_huge_max_len_with_small_budget(self, capsys):
        # the anchored route's state is sized by the depth its budget can
        # reach, and its bound cut counts the open roots without a pass over
        # max-len / r; its whole tree takes 50 nodes
        for budget, exhaustive in (("40", False), ("49", False), ("50", True)):
            started = time.perf_counter()
            code = cli.main(["search", "table", "--r-min", "2", "--r-max", "2", "--k-min", "2",
                             "--k-max", "2", "--max-len", "1000000000", "--budget", budget,
                             "--json"])
            elapsed = time.perf_counter() - started
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), budget
            assert elapsed < 1.0, budget
            (row,) = json.loads(out)
            assert (row["bestCount"], row["witness"], row["exhaustive"]) == (2, ".aba", exhaustive)

    @pytest.mark.parametrize("bounds", [
        ("--r-min", "4", "--r-max", "3", "--k-min", "2", "--k-max", "2"),
        ("--r-min", "2", "--r-max", "2", "--k-min", "3", "--k-max", "2"),
    ])
    def test_table_inverted_range_fails(self, bounds):
        res = run_cli("search", "table", *bounds, "--max-len", "4", "--json")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "range is empty" in res.stderr


@pytest.mark.parametrize("ahead", [("--budget", "5"), ("--json",), ("--r", "9")])
def test_search_options_before_table_fail(ahead):
    # `table` would overwrite them with its own defaults, or never read them
    res = run_cli("search", *ahead, "table", "--r-min", "2", "--r-max", "2",
                  "--k-min", "2", "--k-max", "2", "--max-len", "8")
    assert res.returncode == 2
    assert res.stdout == ""
    assert ahead[0] in res.stderr


def test_out_of_memory_is_a_clean_exit(monkeypatch, capsys):
    def power_profile(word, r):
        raise MemoryError("Unable to allocate 53.6 GiB for an array")

    monkeypatch.setattr(cli, "power_profile", power_profile)
    assert cli.main(["analyze", "abab", "--r", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pwpowers: out of memory: Unable to allocate 53.6 GiB for an array\n"


@pytest.mark.parametrize("argv", [
    ["construct", "square-chain", "--k", "20"],  # 1 MiB on one line
    ["analyze", "a" * 300, "--r", "2"],  # 22,650 occurrence lines
    ["analyze", "a" * 300, "--r", "2", "--json"],
])
def test_closed_stdout_exits_2_without_traceback(argv):
    # the reader takes one byte and closes the pipe, as `| head -c 1` does;
    # the output overflows the pipe's buffer, so the writer meets the close
    proc = subprocess.Popen(PKG + argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == 2
    assert first in (b".", b"w", b"{")
    assert err == b""


def test_cli_import_loads_no_pool():
    # only `search --jobs J` with J > 1 needs a pool; loading one costs every
    # command's start-up
    code = ("import sys, pwpowers.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('concurrent', 'multiprocessing'))))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_interpreted_cli_loads_no_heavy_modules(tmp_path):
    # no command loads a module that would cost much of its start-up: not
    # numpy; not dataclasses, whose import pulls in inspect (and with it
    # ast, dis and tokenize) and whose every decorated class execs new
    # methods; nor numba, which fails any import when first on the path
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text("raise RuntimeError('numba imported')\n")
    code = (
        "import contextlib, io, sys\n"
        "import pwpowers.cli as cli\n"
        "heavy = lambda: sorted({'numpy', 'numba', 'dataclasses', 'inspect'}\n"
        "                       & sys.modules.keys())\n"
        "loaded = [heavy()]\n"
        "for argv in (['analyze', '.abacaba', '--r', '2'],\n"
        "             ['verify', 'theorem-sq', '--k', '2', '--max-len', '8'],\n"
        "             ['search', '--r', '3', '--k', '2', '--max-len', '8']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded.append(heavy())\n"
        "print(loaded)"
    )
    path = os.pathsep.join([str(tmp_path), os.environ["PYTHONPATH"]])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[[], [], [], []]\n"


@pytest.mark.parametrize("argv", [
    ("construct", "square-chain", "--k", "1", "--jobs", "2"),
    ("analyze", "abab", "--r", "2", "--budget", "5"),
    ("verify", "theorem-sq", "--k", "2", "--max-len", "4", "--jobs", "2"),
    ("verify", "construction", "--name", "prop2", "--r", "3", "--budget", "5"),
])
def test_flags_exist_only_where_read(argv):
    # --jobs belongs to search and search table, --budget to the searches
    # and the enumerating verifiers; anywhere else it would do nothing
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "unrecognized arguments" in res.stderr
    base = run_cli(*argv[:-2])
    assert base.returncode == 0 and base.stdout


def test_json_documents_are_stdlib_text(capsys):
    # every --json document but analyze's is json.dumps at a 2-space indent
    for argv in (
        ["verify", "theorem-sq", "--k", "2", "--max-len", "6", "--bound", "1"],
        ["search", "--r", "3", "--k", "2", "--max-len", "9"],
        ["search", "table", "--r-min", "2", "--r-max", "3", "--k-min", "1", "--k-max", "2",
         "--max-len", "6"],
        ["construct", "cube-examples"],
    ):
        assert cli.main([*argv, "--json"]) in (0, 1), argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_no_ansi_escapes_anywhere():
    for args in (
        ("analyze", ".aba", "--r", "2"),
        ("verify", "theorem-sq", "--k", "2", "--max-len", "4"),
        ("search", "--r", "2", "--k", "2", "--max-len", "4"),
    ):
        res = run_cli(*args)
        assert "\x1b" not in res.stdout
        assert "\x1b" not in res.stderr


def _parser_argvs():
    # help at every level of the full parser, then calls that parse and calls
    # that fail: an unknown command or choice, a missing required option or
    # sub-command, a bad value, an option before the command or before `table`
    full = cli._build_parser([])
    argvs = [[], ["-h"], ["--help"]]

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    argvs.append([*path, name, "--help"])
                    walk(child, [*path, name])

    walk(full, [])
    table = ["--r-min", "2", "--r-max", "3", "--k-min", "2", "--k-max", "2", "--max-len", "6"]
    argvs += [
        ["analyze", ".aba", "--r", "2"],
        ["analyze", "--stdin", "--r", "3", "--alphabet", "4", "--json"],
        ["construct", "square-chain", "--k", "3"],
        ["construct", "prop2", "--r", "4", "--json"],
        ["construct", "prop3", "--r", "5", "--unchecked"],
        ["construct", "cube-examples"],
        ["verify", "fine-wilf", "--k", "2", "--max-len", "5", "--budget", "9"],
        ["verify", "corollary-full", "--r", "3", "--k", "2", "--max-len", "5"],
        ["verify", "lemma-h1", "--k", "2", "--max-len", "5"],
        ["verify", "lemma-2k", "--k", "2", "--max-u-len", "3"],
        ["verify", "lemma-short", "--k", "2", "--max-u-len", "3"],
        ["verify", "theorem-sq", "--k", "2", "--max-len", "5", "--bound", "1", "--json"],
        ["verify", "construction", "--name", "prop2", "--r", "4"],
        ["search", "--r", "3", "--k", "2", "--max-len", "8", "--t", "2", "--jobs", "2"],
        ["search", "table", *table, "--csv"],
        ["bogus"],
        ["--json", "analyze", ".aba", "--r", "2"],
        ["analyze", ".aba"],
        ["analyze", ".aba", "--r", "two"],
        ["analyze", ".aba", "--r", "2", "--bogus"],
        ["construct"],
        ["construct", "prop4", "--r", "4"],
        ["verify", "theorem-sq", "--k", "2"],
        ["verify", "construction", "--name", "bogus"],
        ["search", "--json", "table", *table],
        ["search", "table", "--r-min", "2"],
    ]
    return argvs


def test_parser_reads_as_the_full_parser(monkeypatch, capsys):
    # the parser built for each argv, which fills in only the command named
    # first, gives the arguments, exit code, stdout and stderr of the parser
    # with every command filled in; the commands only print their arguments
    for name in ("_run_analyze", "_run_construct", "_run_verify", "_run_search"):
        monkeypatch.setattr(cli, name, lambda args: print(sorted(vars(args).items())) or 0)
    build = cli._build_parser

    def call(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    for argv in _parser_argvs():
        monkeypatch.setattr(cli, "_build_parser", build)
        mine = call(argv)
        monkeypatch.setattr(cli, "_build_parser", lambda _argv: build([]))
        assert mine == call(argv), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "abab", "--r", "2", "--json"],
    ["verify", "theorem-sq", "--k", "2", "--max-len", "4"],
])
def test_parser_fills_one_command(monkeypatch, capsys, argv):
    # building every command's arguments on every call cost milliseconds of
    # each command's start-up; the other commands are registered but empty
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda a: built.append(build(a)) or built[-1])
    assert cli.main(argv) == 0
    capsys.readouterr()
    [commands] = [action.choices for action in built[0]._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert list(commands) == list(cli._COMMANDS)
    filled = [name for name, parser in commands.items() if len(parser._actions) > 1]
    assert filled == [argv[0]]
