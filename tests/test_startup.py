"""Start-up and exit of the CLI: `import pwpowers` loads no submodule, each
command loads only the modules it runs, and `python -m pwpowers` ends with
os._exit once its output is flushed, with the exit codes and output that
cli.main gives in-process."""

import importlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pwpowers
from pwpowers import cli
from pwpowers.__main__ import run

PKG = [sys.executable, "-m", "pwpowers"]
ROOT = Path(__file__).resolve().parent.parent


def _loaded(args, stdin=""):
    # the modules a fresh interpreter running `python -X importtime ARGS`
    # imports after `site`: what site's own hooks load is no command's doing
    res = subprocess.run([sys.executable, "-X", "importtime", *args], input=stdin,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    names = [line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("site") + 1:])


BASE = {"pwpowers", "pwpowers.errors", "pwpowers.words", "pwpowers.cli"}
TABLE = ["search", "table", "--r-min", "3", "--r-max", "3", "--k-min", "2", "--k-max", "2",
         "--max-len", "8"]


@pytest.mark.parametrize("argv, stdin, own, absent", [
    (["construct", "square-chain", "--k", "1"], "", {"constructions"}, {"json"}),
    (["construct", "prop3", "--r", "3"], "", {"constructions"}, {"json"}),
    (["analyze", "--stdin", "--r", "2", "--json"], ".aba\nab.ab\n", {"powers", "_kernels"},
     {"json"}),
    (["analyze", ".aba", "--r", "3"], "", {"powers", "_kernels"}, {"json"}),
    (["verify", "theorem-sq", "--k", "2", "--max-len", "6"], "",
     {"verify", "constructions", "powers", "_kernels"}, set()),
    (["search", "--r", "3", "--k", "2", "--max-len", "8"], "", {"search", "powers", "_kernels"},
     set()),
    (TABLE, "", {"search", "powers", "_kernels"}, set()),
], ids=["construct", "construct-prop3", "analyze-json", "analyze-text", "verify", "search",
        "search-table"])
def test_command_loads_only_its_modules(argv, stdin, own, absent):
    # a module the command does not run would be compiled from source on
    # every call where no bytecode cache is written
    loaded = _loaded(["-m", "pwpowers", *argv], stdin)
    assert {name for name in loaded if name.startswith("pwpowers")} == (
        BASE | {f"pwpowers.{name}" for name in own})
    assert not loaded & absent


def test_package_import_loads_no_submodule():
    loaded = _loaded(["-c", "import pwpowers"])
    assert {name for name in loaded if name.startswith("pwpowers")} == {"pwpowers"}


def test_every_export_resolves():
    for name in pwpowers.__all__:
        value = getattr(pwpowers, name)
        if name != "__version__":
            assert value.__module__.startswith("pwpowers."), name
    namespace = {}
    exec("from pwpowers import *", namespace)
    assert set(pwpowers.__all__) <= namespace.keys()
    assert set(pwpowers.__all__) <= set(dir(pwpowers))


def test_submodules_resolve_as_attributes():
    # perfbench/trace.py reads pkg.cli, pkg.search and pkg._kernels
    for name in ("cli", "search", "_kernels", "verify", "powers", "constructions"):
        assert getattr(pwpowers, name) is sys.modules[f"pwpowers.{name}"]
        assert name in dir(pwpowers)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pwpowers.no_such_name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name
    assert not hasattr(pwpowers, "__wrapped__")


def test_cli_patch_points_are_module_attributes(monkeypatch, capsys):
    # a patch set on cli, as the tracer sets it, is what the command calls
    calls = []
    real = cli.verify_theorem_sq_bound

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_theorem_sq_bound", spy)
    assert cli.main(["verify", "theorem-sq", "--k", "2", "--max-len", "4"]) == 0
    assert calls == [(2, 4)]
    monkeypatch.undo()
    assert cli.verify_theorem_sq_bound is real is pwpowers.verify_theorem_sq_bound
    assert cli.power_profile is pwpowers.power_profile
    capsys.readouterr()


def _in_process(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    return (code, *capsys.readouterr())


def _mask_elapsed(text):
    return re.sub(r"elapsed: [0-9.]+s", "elapsed: <t>s", text)


@pytest.mark.parametrize("argv, code", [
    (["verify", "theorem-sq", "--k", "2", "--max-len", "6"], 0),
    (["verify", "theorem-sq", "--k", "2", "--max-len", "6", "--bound", "1"], 1),
    (["analyze", "ab#a", "--r", "2"], 2),
    (["verify", "theorem-sq", "--k", "2", "--max-len", "12", "--budget", "100"], 2),
])
def test_exit_codes_match_in_process(argv, code, monkeypatch, capsys):
    res = subprocess.run(PKG + argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == code
    if code == 1:
        assert "counterexample: " in res.stdout
    if code == 2:
        assert res.stdout == "" and len(res.stderr.splitlines()) == 1
    mine = (res.returncode, _mask_elapsed(res.stdout), res.stderr)
    code_, out, err = _in_process(argv, "", monkeypatch, capsys)
    assert mine == (code_, _mask_elapsed(out), err)


def test_large_json_batch_through_a_pipe(monkeypatch, capsys):
    # 4 MB of --json through a pipe, which the reader drains as it is
    # written, arrive whole before the process ends, block-buffered too
    rng = random.Random(28)
    lines = ["".join("." if rng.random() < 0.3 else rng.choice("abc")
                     for _ in range(rng.randint(16, 200))) for _ in range(340)]
    text = "\n".join(lines) + "\n"
    argv = ["analyze", "--stdin", "--r", "2", "--json"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    res = subprocess.run(PKG + argv, input=text.encode(), capture_output=True, env=env,
                         timeout=600)
    assert (res.returncode, res.stderr) == (0, b"")
    assert len(res.stdout) > 4_000_000
    code, out, err = _in_process(argv, text, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert res.stdout == out.encode()


@pytest.mark.parametrize("argv", [
    ["search", "--r", "3", "--k", "2", "--max-len", "9", "--jobs", "2"],
    ["search", "table", "--r-min", "2", "--r-max", "4", "--k-min", "1", "--k-max", "2",
     "--max-len", "9", "--t", "2", "--jobs", "2"],
])
def test_worker_pool_ends_with_the_cli(argv):
    # both calls open a pool of two workers; none of them may outlive the
    # CLI process that os._exit ends
    proc = subprocess.Popen(PKG + argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    assert out and err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_script_entry_point_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["pwpowers"]
    module, _, name = entry.partition(":")
    assert getattr(importlib.import_module(module), name) is run


def _run_with_atexit(argv):
    code = ("import atexit, sys\n"
            "from pwpowers.__main__ import run\n"
            "atexit.register(print, 'atexit ran')\n"
            f"sys.argv[1:] = {argv!r}\n"
            "run()\n")
    return subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=600)


def test_run_skips_teardown_only_after_main_returns():
    # a returned exit code skips atexit handlers; argparse's SystemExit takes
    # the interpreter's normal exit, which runs them
    done = _run_with_atexit(["construct", "square-chain", "--k", "1"])
    assert (done.returncode, done.stdout, done.stderr) == (0, ".a\n", "")
    refused = _run_with_atexit(["verify", "theorem-sq", "--k", "2", "--max-len", "6",
                                "--bound", "1"])
    assert refused.returncode == 1 and "atexit ran" not in refused.stdout
    usage = _run_with_atexit(["construct"])
    assert (usage.returncode, usage.stdout) == (2, "atexit ran\n")
    assert usage.stderr.startswith("usage: ")
