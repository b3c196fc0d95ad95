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
