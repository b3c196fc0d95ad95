"""Summarize benchmark records into medians, quartiles and spreads.

    python3 perfbench/summarize.py [RECORD.json ...] [--write BENCH.json]

Reads the records that run.py leaves in perfbench/out/ (or the files named),
prints, per workload and metric, the median, the spread (interquartile range
over median) and the bound from BENCHMARK.json, and can write the whole set,
quartiles and values included, as one result file such as
results/BENCH_1.json. Records of --corrupt runs are listed apart.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SHARED_ENV = ("backend", "python", "numpy", "nproc", "commit", "source_sha256")


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return records


def summary(values):
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
        "values": values,
    }


def build(records, bounds):
    envs = {tuple(r["environment"].get(k) for k in SHARED_ENV) for r in records}
    if len(envs) != 1:
        raise SystemExit(f"records come from {len(envs)} different environments: {envs}")
    result = {"environment": dict(zip(SHARED_ENV, envs.pop())), "workloads": {}}
    for rec in sorted(records, key=lambda r: (r["environment"]["workload"],
                                              r["environment"]["seed"])):
        env = rec["environment"]
        if env.get("corrupt"):
            result.setdefault("corrupt_check", {})[env["workload"]] = {
                key: rec[key] for key in ("correct", "attempted", "failed")}
            continue
        kind = "per_layer" if env["trace"] else "end_to_end"
        wl = result["workloads"].setdefault(env["workload"], {})
        group = wl.setdefault(kind, {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}})
        group["seeds"].append(env["seed"])
        group["attempted"] += rec["attempted"]
        group["failed"] += rec["failed"]
        for name, m in rec["metrics"].items():
            group["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            group["metrics"][name]["values"].append(m["value"])
    for wl in result["workloads"].values():
        for kind, group in wl.items():
            for name, m in group["metrics"].items():
                m.update(summary(m["values"]))
                if kind == "end_to_end" and name in bounds:
                    m["bound"] = bounds[name]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/summarize.py")
    parser.add_argument("records", nargs="*",
                        help="run records (default: perfbench/out/result-*.json)")
    parser.add_argument("--write", metavar="PATH", help="write the summary as JSON")
    args = parser.parse_args(argv)
    paths = args.records or sorted(glob.glob(os.path.join(OUT, "result-*.json")))
    if not paths:
        print("summarize.py: no records found", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    result = build(load(paths), bounds)

    print("environment: " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    for wname, wl in result["workloads"].items():
        for kind, group in wl.items():
            print(f"\n{wname} {kind}: {len(group['seeds'])} runs, "
                  f"{group['attempted']} attempted, {group['failed']} failed")
            for name, m in group["metrics"].items():
                bound = m.get("bound")
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = "  ok" if m["spread"] < bound / 3 else (
                        "  WITHIN BOUND" if m["spread"] <= bound else "  OVER BOUND")
                print(f"  {name:44s} {m['median']:>14.6g} {m['unit']:6s} "
                      f"IQR/median {m['spread']:.4f}"
                      + (f" (bound {bound})" if bound is not None else "") + flag)
    for wname, check in result.get("corrupt_check", {}).items():
        print(f"\n{wname} with a corrupted expectation: {check['attempted']} attempted, "
              f"{check['failed']} failed, correct={check['correct']}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
