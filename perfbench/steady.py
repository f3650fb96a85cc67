#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

The first form runs perfbench/run.py once per workload and seed (untraced,
BENCHMARK.json's run_seconds) and reports, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
must stay within the metric's bound, and should stay below a third of
it. --out saves every value and the summary as JSON.

The second form compares the medians of two saved sets: for each metric
the second median may be worse than the first by at most the bound.
Run from the root of a modb checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.stderr.write(run.stderr)
                sys.exit("%s seed %d failed (exit %d)" % (w, seed, run.returncode))
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, ", ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
                flush=True)
    summary = {}
    ok = True
    for w in workloads:
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary.setdefault(w, {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else (
                "  above a third of the bound" if spread <= m["bound"] else "  ABOVE BOUND")
            ok = ok and (m["name"] == "setup_s" or spread <= m["bound"])
            print("%-14s %-14s median %-12.5g spread %.4f (bound %.2f)%s"
                  % (w, m["name"], med, spread, m["bound"], flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": parse_seeds(args.seeds), "values": values,
                       "summary": summary}, f, indent=1)
    return 0 if ok else 1


def compare(first_path, second_path):
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)["summary"]
    with open(second_path) as f:
        second = json.load(f)["summary"]
    ok = True
    for w, metrics in first.items():
        for name, a in metrics.items():
            b = second[w][name]
            m = bounds[name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if m["better"] == "lower" else -change
            good = worse <= m["bound"]
            ok = ok and good
            print("%-14s %-14s %12.5g -> %-12.5g %+.4f (bound %.2f)%s" % (
                w, name, a["median"], b["median"], change, m["bound"],
                "" if good else "  WORSE THAN BOUND"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds")
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.seeds:
        ap.error("--seeds or --compare is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
