"""The traced benchmark run wraps package functions by module and attribute
name; a rename in the package must fail here, not only under --trace 1."""

import importlib.util
from pathlib import Path

import pwpowers
import pwpowers.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_patch_points_exist(monkeypatch):
    # trace.py imports its sibling workloads.py; it is loaded under another
    # name because `trace` is a stdlib module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    points = trace._patch_points(pwpowers)
    assert points
    for module, attr, name, _note in points:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


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
