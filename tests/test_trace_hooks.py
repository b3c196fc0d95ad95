"""The traced benchmark run wraps package functions by module and attribute
name; a rename in the package must fail here, not only under --trace 1."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import pwpowers
import pwpowers.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def trace(monkeypatch):
    # trace.py imports its sibling workloads.py; it is loaded under another
    # name because `trace` is a stdlib module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_exist(trace):
    points = trace._patch_points(pwpowers)
    assert points
    for module, attr, name, _note in points:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_backend_constant():
    # trace.py and run.py report the kernel backend from this constant
    assert pwpowers._kernels.NUMBA_ENABLED is False


def test_notes_read_real_calls(trace):
    # each note reads the arguments and result of the function it wraps
    # (the scan's note reads its word's `shape`), so a change of what the
    # package passes there must fail here, not only under --trace 1
    argvs = [
        ["analyze", ".abacaba", "--r", "2"],  # parse_word, power_profile, the scan
        ["verify", "theorem-sq", "--k", "2", "--max-len", "8"],
        # search_max_powers is patched on its module, which `table` calls
        ["search", "table", "--r-min", "3", "--r-max", "3", "--k-min", "2", "--k-max", "2",
         "--max-len", "8"],
    ]
    spans = []
    for argv in argvs:
        (_, rc, out), call_spans = trace.traced_call(pwpowers, SimpleNamespace(argv=argv, stdin=None))
        assert rc == 0, argv
        trace.layer_metrics(call_spans, out)
        spans += call_spans
    for _, _, name, note in trace._patch_points(pwpowers):
        called = [span for span in spans if span[0] == name]
        assert called, name
        if note is not None:
            assert all(span[4] is not None for span in called), name


def test_plain_search_is_traced(trace):
    # cli calls search_max_powers through its module, where the tracer
    # patches it, so plain `search` records the span and its nodes
    argv = ["search", "--r", "3", "--k", "2", "--max-len", "8"]
    (_, rc, out), spans = trace.traced_call(pwpowers, SimpleNamespace(argv=argv, stdin=None))
    assert rc == 0
    assert [span[0] for span in spans].count("search.search_max_powers") == 1
    assert trace.layer_metrics(spans, out)["search.nodes"] > 0


def _spy(monkeypatch, name):
    # record what the named kernel returns, as trace.py's wrappers see it
    calls = []
    kernel = getattr(pwpowers._kernels, name)

    def spy(*args):
        calls.append(kernel(*args))
        return calls[-1]

    monkeypatch.setattr(pwpowers._kernels, name, spy)
    return calls


def test_traced_kernel_results(monkeypatch):
    # trace.py reads theorem_sq_kernel's res[2] as the words enumerated and
    # search_kernel's res[1] as the nodes explored
    calls = _spy(monkeypatch, "theorem_sq_kernel")
    report = pwpowers.verify_theorem_sq_bound(2, 8)
    assert [res[2] for res in calls] == [report.findings["wordsEnumerated"]]

    calls = _spy(monkeypatch, "search_kernel")
    query = pwpowers.SearchQuery(exponent=3, alphabet_size=2, max_len=7)
    result = pwpowers.search_max_powers(query)
    assert len(calls) > 1
    # the empty word is a node of the search, not of any kernel call
    assert sum(res[1] for res in calls) + 1 == result.nodes_explored
