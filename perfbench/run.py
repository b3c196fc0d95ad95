"""End-to-end benchmark of the pwpowers CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).

--trace 0 runs `python -m pwpowers ...` as one child process at a time, for
about S seconds, and reports medians over the runs: wall_s, wall_rel, setup_s
(a trivial CLI call, spawn through import and argument parsing), peak_rss_mb
and pass_ratio. Every run's stdout is checked. wall_rel is wall_s divided by
the mean of the host-speed probes timed just before and just after each CLI
run: a fixed interpreted loop in this process, outside the timed intervals.
Contention on a shared host comes in bursts that can slow a single probe
twice over, so the probes are pooled over the whole set of runs rather than
paired with their neighbouring run.

--trace 1 runs trace.py instead, which calls cli.main in-process with spans
around each layer's entry points, and reports per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A record of the run, with its environment, is written to
perfbench/out/. Exit code: 0 when every output was correct, 1 when a check
failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

CHILD_TIMEOUT_S = 150.0
MIN_SAMPLES = 3
SETUP_REPEATS = 7
PROBE_ROUNDS = 400  # 0.45-0.8 s per probe on a 2-vCPU Xeon guest

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def _probe_work() -> int:
    # residue-class agreement test over every window of a fixed list: the
    # same kind of interpreted work as the package's kernels, but none of
    # its code, so no change to the package can move this number
    word = [0, 1, 2, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 0, 1, 2] * 6
    n = len(word)
    hits = 0
    for p in [*range(1, 13)] * PROBE_ROUNDS:
        for start in range(n - 2 * p + 1):
            ok = True
            for c in range(p):
                last = 0
                idx = start + c
                while idx < start + 2 * p:
                    s = word[idx]
                    if s != 0:
                        if last != 0 and s != last:
                            ok = False
                        last = s
                    idx += p
            hits += ok
    return hits


def probe() -> float:
    """Host-speed probe: seconds for one run of a fixed loop."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list, stdin_path: str | None) -> dict:
    """Run one child to completion; returns wall time, peak RSS, exit code
    and output. The child is killed after CHILD_TIMEOUT_S."""
    with open(stdin_path or os.devnull, "rb") as fin, \
            tempfile.TemporaryFile(dir=OUT) as fout, \
            tempfile.TemporaryFile(dir=OUT) as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        return {
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "rc": proc.returncode,
            "stdout": fout.read().decode("utf-8", "replace"),
            "stderr": ferr.read().decode("utf-8", "replace"),
        }


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "pwpowers", *argv]


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pwpowers")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args) -> dict:
    """Backend and versions as the child processes see them."""
    code = ("import json, platform, numpy, pwpowers._kernels as k; "
            "print(json.dumps({'backend': 'numba' if k.NUMBA_ENABLED else 'python', "
            "'python': platform.python_version(), 'numpy': numpy.__version__}))")
    res = spawn([sys.executable, "-c", code], None)
    if res["rc"] != 0:
        raise BenchError(f"cannot import pwpowers from {SRC}:\n{res['stderr']}")
    env = json.loads(res["stdout"])
    env.update({
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corrupt": args.corrupt,
    })
    return env


def measure_setup() -> list:
    """Seconds for SETUP_REPEATS trivial CLI calls, after one warm-up call."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = spawn(cli_cmd(workloads.SETUP_ARGV), None)
        if res["rc"] != 0 or res["stdout"] != workloads.SETUP_STDOUT:
            raise BenchError(f"set-up call failed (exit {res['rc']}):\n{res['stderr']}")
        if i > 0:
            times.append(res["wall_s"])
    return times


def run_timed(case: workloads.Case, seconds: float) -> dict:
    """Untraced CLI runs until `seconds` would be exceeded (at least
    MIN_SAMPLES), with a host-speed probe before, between and after them."""
    stdin_path = None
    if case.stdin is not None:
        stdin_path = os.path.join(OUT, f"stdin-{case.name}.txt")
        with open(stdin_path, "w", encoding="utf-8") as f:
            f.write(case.stdin)
    setup = measure_setup()
    samples = []
    probes = [probe()]
    t_start = time.perf_counter()
    while True:
        res = spawn(cli_cmd(case.argv), stdin_path)
        probes.append(probe())
        why = f"exit code {res['rc']}" if res["rc"] != 0 else case.check(res["stdout"])
        samples.append({
            "wall_s": res["wall_s"],
            "rss_mb": res["rss_mb"],
            "ok": why is None,
            "why": why,
        })
        if why is not None:
            print(f"check failed on run {len(samples)}: {why[:300]}", file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            break
    failed = sum(1 for s in samples if not s["ok"])
    wall = statistics.median(s["wall_s"] for s in samples)
    metrics = {
        "wall_s": wall,
        "wall_rel": wall / statistics.fmean(probes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "pass_ratio": (len(samples) - failed) / len(samples),
    }
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "samples": samples,
        "probes_s": probes,
        "setup_samples_s": setup,
    }


def run_traced(args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "trace.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.corrupt:
        cmd.append("--corrupt")
    res = spawn(cmd, None)
    if res["rc"] != 0:
        raise BenchError(f"traced run failed (exit {res['rc']}):\n{res['stderr']}")
    lines = res["stdout"].strip().splitlines()
    if not lines:
        raise BenchError("traced run printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per run (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process run with per-layer metrics")
    parser.add_argument("--corrupt", action="store_true",
                        help="break one expected value, to show that checks fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pwpowers", "__init__.py")):
        print(f"run.py: no pwpowers package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        env = environment(args)
        if args.trace:
            result = run_traced(args)
        else:
            case = workloads.make_case(args.workload, args.seed, corrupt=args.corrupt)
            result = run_timed(case, args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    correct = result["failed"] == 0
    record = {"environment": env, "correct": correct, **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-corrupt' if args.corrupt else ''}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"runs: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_ratio {result['failed'] / result['attempted']:.4g}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
