"""End-to-end command-line checks through real subprocesses: output shapes,
exit codes, JSON round-trips, and run-to-run byte identity; plus the JSON
writer against the stdlib encoder."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwpowers import _kernels, cli
from pwpowers.cli import _json_text

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

    def test_word_and_stdin_are_exclusive(self):
        assert run_cli("analyze", "aa", "--r", "2", "--stdin").returncode == 2
        assert run_cli("analyze", "--r", "2").returncode == 2

    def test_bad_exponent(self):
        assert run_cli("analyze", "aa", "--r", "1").returncode == 2


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
# the largest length, over three letters, under a negative budget and past
# the largest length, each in text and --json, as the CLI printed them with
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
        # the cells share one pool of workers
        argv = ("search", "table", "--r-min", "2", "--r-max", "4", "--k-min", "1",
                "--k-max", "2", "--max-len", "9", "--json")
        base = run_cli(*argv)
        res = run_cli(*argv, "--jobs", "2")
        assert (res.returncode, res.stdout) == (0, base.stdout)
        assert len(json.loads(base.stdout)) == 6

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched kernel reaches the workers only by fork")
    def test_dead_worker_is_one_error_line(self, monkeypatch, capsys):
        # a worker the OS kills (say, for memory) breaks the pool; the survey
        # runs in this process, every partition in a worker
        kernel, parent = _kernels.search_kernel, os.getpid()

        def dying_kernel(*args):
            if os.getpid() != parent:
                os._exit(3)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "search_kernel", dying_kernel)
        for argv in (["search", "--r", "3", "--k", "2", "--max-len", "9"],
                     ["search", "table", "--r-min", "3", "--r-max", "4", "--k-min", "2",
                      "--k-max", "2", "--max-len", "9"]):
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


def test_interpreted_cli_loads_no_numpy(tmp_path):
    # the package imports neither numpy, which would cost most of an
    # interpreted command's start-up, nor numba: a numba that is first on
    # the path fails any import of it
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text("raise RuntimeError('numba imported')\n")
    code = (
        "import contextlib, io, sys\n"
        "import pwpowers.cli as cli\n"
        "heavy = lambda: sorted({'numpy', 'numba'} & sys.modules.keys())\n"
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


json_strings = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u2028\u20ac\U0001f600')
    | st.characters()
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2**63), 2**64, -(10**40), 10**100])
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320, 1e300])
    | json_strings
)
json_documents = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_strings, children, max_size=4)
    ),
    max_leaves=30,
)


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


class TestJsonWriter:
    """_json_text, which writes every --json document, against the stdlib."""

    @settings(max_examples=300, deadline=None)
    @given(json_documents)
    @example({"a": [], "b": {}, "c": (), "d": [[], {}, [[]]], "e": [1, True, -0.0]})
    def test_matches_stdlib(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, np.int64(3), [np.int32(1)], {"a": frozenset()}])
    def test_rejects_what_stdlib_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


def test_no_ansi_escapes_anywhere():
    for args in (
        ("analyze", ".aba", "--r", "2"),
        ("verify", "theorem-sq", "--k", "2", "--max-len", "4"),
        ("search", "--r", "2", "--k", "2", "--max-len", "4"),
    ):
        res = run_cli(*args)
        assert "\x1b" not in res.stdout
        assert "\x1b" not in res.stderr
