#!/usr/bin/env python3
"""Check that two sets of benchmark runs of one build agree.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed 1]
                                [--same-seed]

Run from the repository root. Runs perfbench/run.py with --trace 0 for
every chosen workload (default: all of BENCHMARK.json's), alternating
set A and set B and which of the two goes first. Every run gets its own
seed, as in the acceptance check: set A uses seed, seed+1, ...; set B
continues after A's last. With --same-seed every run uses seed, which
leaves host noise alone in the spread.
Then prints, per workload and end-to-end metric, each set's median and
quartiles, the quartile spread as a share of the median against the
metric's bound, and how much worse set B's median is than set A's;
row AB pools both sets. Every run's result also goes to stderr as one
JSON line; redirect it to keep a record.
A gap between the sets' medians over the bound, either way, is marked
FAIL; so is a spread over the bound, except that of setup_s, whose
gate is the gap alone; so is a workload whose two sets fail different
shares of their operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse_by(metric, base, other):
    """Share by which other is worse than base (negative: better)."""
    if metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--same-seed", action="store_true",
                    help="give every run the first seed")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    results = {(w, s): [] for w in names for s in "AB"}
    for i in range(args.runs):
        for w in names:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = args.seed
                if not args.same_seed:
                    seed += i + (args.runs if s == "B" else 0)
                r = one_run(w, seed, spec["run_seconds"])
                results[(w, s)].append(r)
                line = {"workload": w, "set": s, "seed": seed, **r}
                print(json.dumps(line), file=sys.stderr, flush=True)

    ok = True
    print("%-18s %-12s %3s %12s %12s %12s %7s %7s %7s %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread",
        "bound", "B-vs-A", "verdict"))
    for w in names:
        shares = {s: (sum(r["failed"] for r in results[(w, s)]),
                      sum(r["attempted"] for r in results[(w, s)]))
                  for s in "AB"}
        if shares["A"][0] * shares["B"][1] != shares["B"][0] * shares["A"][1]:
            ok = False
            print("%-18s failed shares differ: %s FAIL" % (w, shares))
        for m in spec["end_to_end"]:
            med = {}
            for s in ("A", "B", "AB"):
                vals = [r["metrics"][m["name"]]["value"]
                        for part in s for r in results[(w, part)]]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med[s] = statistics.median(vals)
                spread = (q3 - q1) / med[s]
                gap = worse_by(m, med["A"], med["B"]) if s == "B" else 0.0
                bad = abs(gap) > m["bound"] or (
                    spread > m["bound"] and m["name"] != "setup_s")
                ok = ok and not bad
                print("%-18s %-12s %3s %12.6g %12.6g %12.6g %7.3f %7.3f "
                      "%7.3f %s" % (w, m["name"], s, q1, med[s], q3, spread,
                                    m["bound"], gap,
                                    "FAIL" if bad else "ok"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
