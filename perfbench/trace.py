"""Traced in-process run of one workload, for per-layer metrics.

    PYTHONPATH=src python3 perfbench/trace.py --workload NAME --seed N --seconds S

Started by `run.py --trace 1`. It times the package import, then calls
cli.main in-process, alternately untraced and with every layer entry point
replaced by a wrapper that records a span (name, start, end, parent) in
memory. The package itself is not changed: each wrapper is put on the module
attribute that the caller looks the name up on. The spans of the last traced
call are written to perfbench/out/ at the end, and the last stdout line is
one JSON object in run.py's result format, with per-layer metrics.

Wrappers on _kernels catch nested calls only on the interpreted backend; a
numba-compiled verifier kernel calls occurrence_scan without a lookup.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

UNITS = {
    "kernels.search_kernel.calls": "count",
    "kernels.search_kernel.busy_s": "s",
    "kernels.search_kernel.us_per_node": "us",
    "kernels.search_kernel.max_partition_share": "ratio",
    "search.nodes": "count",
    "search.pruned_start_ratio": "ratio",
    "search.survey.busy_s": "s",
    "search.survey.share": "ratio",
    "search.self_s": "s",
    "kernels.occurrence_scan.calls": "count",
    "kernels.occurrence_scan.busy_s": "s",
    "kernels.occurrence_scan.us_per_call": "us",
    "kernels.occurrence_scan.windows": "count",
    "kernels.occurrence_scan.ns_per_window": "ns",
    "kernels.theorem_sq_kernel.busy_s": "s",
    "verify.odometer_self_s": "s",
    "verify.words_per_s": "1/s",
    "words.parse_word.calls": "count",
    "words.parse_word.us_per_call": "us",
    "powers.power_profile.self_us_per_call": "us",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "pwpowers.import_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return traced


def _scan_windows(args, _result) -> int:
    # candidate windows the scan tests: sum over p of (n - rp + 1)
    n, r = int(args[0].shape[0]), int(args[1])
    p_max = n // r
    return p_max * (n + 1) - r * p_max * (p_max + 1) // 2


def _patch_points(pkg):
    """(module, attribute, span name, note) for each layer entry point.

    cli imports parse_word, power_profile and verify_theorem_sq_bound by
    name, so those are patched on cli; the others are looked up on their
    own module at call time.
    """
    cli, search, kernels = pkg.cli, pkg.search, pkg._kernels
    return [
        (cli, "parse_word", "words.parse_word", None),
        (cli, "power_profile", "powers.power_profile", None),
        (cli, "verify_theorem_sq_bound", "verify.verify_theorem_sq_bound", None),
        (search, "search_max_powers", "search.search_max_powers",
         lambda a, res: (res.nodes_explored, res.pruned_by_start_bound)),
        (search, "_survey_prefixes", "search.survey", None),
        (kernels, "search_kernel", "kernels.search_kernel", lambda a, res: int(res[1])),
        (kernels, "theorem_sq_kernel", "kernels.theorem_sq_kernel",
         lambda a, res: int(res[2])),
        (kernels, "occurrence_scan", "kernels.occurrence_scan", _scan_windows),
    ]


def call_cli(case, main):
    """One in-process CLI call; returns (seconds, exit code, stdout)."""
    saved = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(case.stdin or "")
    sys.stdout = io.StringIO()
    try:
        t0 = time.perf_counter()
        rc = main(list(case.argv))
        wall = time.perf_counter() - t0
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return wall, rc, out


def traced_call(pkg, case):
    tracer = Tracer()
    points = _patch_points(pkg)
    originals = [getattr(mod, attr) for mod, attr, _, _ in points]
    for mod, attr, name, note in points:
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), note))
    try:
        result = call_cli(case, tracer.wrap("cli.main", pkg.cli.main))
    finally:
        for (mod, attr, _, _), fn in zip(points, originals):
            setattr(mod, attr, fn)
    return result, tracer.spans


def layer_metrics(spans, stdout: str) -> dict:
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    by_name = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += dur[i]
            children[parent].append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(dur[i] for i in idx(name))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in idx(name))

    def notes(name):
        return [spans[i][4] for i in idx(name)]

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_busy = busy("kernels.search_kernel")
    kernel_nodes = sum(notes("kernels.search_kernel"))
    partition_shares = []
    for i in idx("search.search_max_powers"):
        parts = [dur[j] for j in children[i] if spans[j][0] == "kernels.search_kernel"]
        if parts:
            partition_shares.append(max(parts) / sum(parts))
    search_busy = busy("search.search_max_powers")
    search_nodes = sum(n for n, _ in notes("search.search_max_powers"))
    search_pruned = sum(p for _, p in notes("search.search_max_powers"))
    scan_calls = len(idx("kernels.occurrence_scan"))
    scan_busy = busy("kernels.occurrence_scan")
    scan_windows = sum(notes("kernels.occurrence_scan"))
    sq_busy = busy("kernels.theorem_sq_kernel")
    parse_calls = len(idx("words.parse_word"))
    profile_calls = len(idx("powers.power_profile"))
    return {
        "kernels.search_kernel.calls": len(idx("kernels.search_kernel")),
        "kernels.search_kernel.busy_s": kernel_busy,
        "kernels.search_kernel.us_per_node": ratio(kernel_busy * 1e6, kernel_nodes),
        "kernels.search_kernel.max_partition_share": max(partition_shares, default=0.0),
        "search.nodes": search_nodes,
        "search.pruned_start_ratio": ratio(search_pruned, search_nodes),
        "search.survey.busy_s": busy("search.survey"),
        "search.survey.share": ratio(busy("search.survey"), search_busy),
        "search.self_s": self_time("search.search_max_powers"),
        "kernels.occurrence_scan.calls": scan_calls,
        "kernels.occurrence_scan.busy_s": scan_busy,
        "kernels.occurrence_scan.us_per_call": ratio(scan_busy * 1e6, scan_calls),
        "kernels.occurrence_scan.windows": scan_windows,
        "kernels.occurrence_scan.ns_per_window": ratio(scan_busy * 1e9, scan_windows),
        "kernels.theorem_sq_kernel.busy_s": sq_busy,
        "verify.odometer_self_s": self_time("kernels.theorem_sq_kernel"),
        "verify.words_per_s": ratio(sum(notes("kernels.theorem_sq_kernel")), sq_busy),
        "words.parse_word.calls": parse_calls,
        "words.parse_word.us_per_call": ratio(busy("words.parse_word") * 1e6, parse_calls),
        "powers.power_profile.self_us_per_call":
            ratio(self_time("powers.power_profile") * 1e6, profile_calls),
        "cli.self_s": self_time("cli.main"),
        "cli.stdout_bytes": len(stdout.encode("utf-8")),
    }


def write_spans(path, backend, spans) -> None:
    names = sorted({s[0] for s in spans})
    code = {name: i for i, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump({
            "backend": backend,
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[code[name], round(start, 9), round(end, 9), parent]
                      for name, start, end, parent, _ in spans],
        }, f, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/trace.py")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import pwpowers
    import pwpowers.cli
    import_s = time.perf_counter() - t0
    backend = "numba" if pwpowers._kernels.NUMBA_ENABLED else "python"

    case = workloads.make_case(args.workload, args.seed, corrupt=args.corrupt)
    failures = []

    def judge(rc, out):
        why = f"exit code {rc}" if rc != 0 else case.check(out)
        if why is not None:
            failures.append(why)
            print(f"check failed: {why[:300]}", file=sys.stderr)

    # untraced and traced calls alternate, so that each pair sees about the
    # same host speed; at least one pair
    untraced, traced, per_rep = [], [], []
    t_start = time.perf_counter()
    while not traced or (time.perf_counter() - t_start + untraced[-1] + traced[-1]
                         <= args.seconds):
        wall, rc, out = call_cli(case, pwpowers.cli.main)
        judge(rc, out)
        untraced.append(wall)
        (wall, rc, out), spans = traced_call(pwpowers, case)
        judge(rc, out)
        traced.append(wall)
        per_rep.append(layer_metrics(spans, out))

    os.makedirs(OUT, exist_ok=True)
    write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
                backend, spans)

    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    base = statistics.median(untraced)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics.update({
        "pwpowers.import_s": import_s,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / base,
    })
    print(json.dumps({
        "correct": not failures,
        "attempted": len(untraced) + len(traced),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS},
        "backend": backend,
        "nested_scan_spans": backend == "python",
        "untraced_s": untraced,
        "traced_s": traced,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
