#!/usr/bin/env python3
"""Run the ledger over many seeds and summarise it as a trajectory point.

    python3 ledger/sweep.py [--out FILE]

Runs the command of BENCHMARK.json on every workload once per seed 0-9,
untraced, in two sets, then once traced at seed 0. For each end-to-end
metric it prints the median and the quartile spread (q3 - q1) / median
next to the metric's bound, and checks that every spread stays below a
third of its bound, that the second set's medians are within the bound
of the first set's, that every run was correct and timed at least two
repetitions, and that the deterministic counters of a seed are
byte-identical in both sets. `--out` writes the summary as JSON
(ledger/seed.json is one such file). The exit code is 1 when a check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = range(10)


def run(command, workload, seed, seconds, trace, out):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as f:
        doc = json.load(f)
    return result, doc


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def revision():
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = []
    sets, det = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ledger.json")
        for k in range(SETS):
            summary = {}
            for w in names:
                values = {m: [] for m in bounds}
                for seed in SEEDS:
                    result, doc = run(command, w, seed, seconds, 0, out)
                    where = f"set {k} {w} seed {seed}"
                    if not result["correct"] or result["failed"]:
                        failures.append(f"{where}: incorrect {doc['failures']} {doc['problems']}")
                    if doc["reps"] < 2:
                        failures.append(f"{where}: {doc['reps']} repetition")
                    for m in bounds:
                        values[m].append(result["metrics"][m]["value"])
                    if det.setdefault((w, seed), doc["det"]) != doc["det"]:
                        failures.append(f"{where}: deterministic counters differ from set 0")
                    print(f"{where}: reps={doc['reps']} " + " ".join(
                        f"{m}={values[m][-1]:.6g}" for m in bounds), flush=True)
                summary[w] = {m: spread(v) for m, v in values.items()}
            sets.append(summary)
        traced = {}
        for w in names:
            result, doc = run(command, w, 0, seconds, 1, out)
            if not result["correct"]:
                failures.append(f"traced {w}: incorrect {doc['failures']} {doc['problems']}")
            traced[w] = {"metrics": {m: v["value"] for m, v in result["metrics"].items()},
                         "span_cover": doc["span_cover"], "folded": doc["folded"]}

    print(f"\n{'workload':<14} {'metric':<14} " + " ".join(
        f"{'median' + str(k):>10} {'spread' + str(k):>8}" for k in range(SETS)) + "   bound")
    for w in names:
        for m, bound in bounds.items():
            row = [s[w][m] for s in sets]
            print(f"{w:<14} {m:<14} " + " ".join(
                f"{r['median']:>10.6g} {r['spread']:>8.4f}" for r in row) + f"   {bound}")
            first = row[0]["median"]
            for k, r in enumerate(row):
                if r["spread"] >= bound / 3:
                    failures.append(f"set {k} {w} {m}: spread {r['spread']:.4f} >= bound/3")
                if r["median"] > first * (1 + bound):
                    failures.append(f"set {k} {w} {m}: median {r['median']:.6g} worse than {first:.6g} + {bound}")
    for why in failures:
        print("FAIL", why)

    if a.out:
        doc = {
            "schema": "sbif-ledger-trajectory-v1",
            "rev": revision(),
            "nproc": os.cpu_count(),
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "sets": sets,
            "traced_seed0": traced,
            "det_seed0": {w: det[(w, 0)] for w in names},
            "failures": failures,
        }
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
