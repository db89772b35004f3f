#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--trace 0]

Runs each workload --runs times through perfbench/run.py, on seeds 1..runs
and for BENCHMARK.json's run_seconds, and prints for every metric its
median, its quartiles and the IQR as a share of the median
(statistics.quantiles, n=4), beside the metric's bound from BENCHMARK.json.
A spread below a third of the bound reads "steady", within the bound "ok",
else "NOISY". It also checks every run's op_ms_p90 / op_ms_p50 <= 1.5 and
that every op passed. Finally it runs each workload once on the held-out
seed 7919, which is not to be used while tuning, and shows where that run
lands.
A JSON summary goes to .bench_out/steady-<trace>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1
HELDOUT_SEED = 7919


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    seconds = spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    summary = {}
    all_good = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, FIRST_SEED + i, seconds, args.trace)
                   for i in range(args.runs)]
        print(f"\n== {workload}: {args.runs} runs x {seconds} s, "
              f"seeds {FIRST_SEED}..{FIRST_SEED + args.runs - 1}")
        bad = [r for r in results if not r["correct"] or r["failed"]]
        ops = [r["attempted"] for r in results]
        print(f"ops per run {min(ops)}..{max(ops)}; "
              f"runs with failed ops: {len(bad)}")
        all_good &= not bad
        rows = {}
        print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'bound':>6}  verdict")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            bound = bounds[name]
            if bound is None:
                verdict = "-"
            elif rel < bound / 3:
                verdict = "steady"
            elif rel <= bound:
                verdict = "ok"
            else:
                verdict = "NOISY"
                all_good = False
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "iqr_over_median": rel, "values": values}
            print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{rel:8.4f} {bound if bound is not None else '-':>6}  "
                  f"{verdict}")
        if not args.trace:
            tails = [r["metrics"]["op_ms_p90"]["value"] /
                     r["metrics"]["op_ms_p50"]["value"] for r in results]
            print(f"op_ms_p90 / op_ms_p50 per run: max {max(tails):.3f} "
                  f"({'ok' if max(tails) <= 1.5 else 'OVER 1.5'})")
            all_good &= max(tails) <= 1.5
        held = run_once(workload, HELDOUT_SEED, seconds, args.trace)
        print(f"held-out seed {HELDOUT_SEED}: correct={held['correct']} "
              f"failed={held['failed']}")
        all_good &= held["correct"]
        for name, row in rows.items():
            value = held["metrics"][name]["value"]
            rel = value / row["median"] - 1 if row["median"] else 0.0
            print(f"  {name:34} {value:14.6g} ({rel:+.3f} vs median)")
        summary[workload] = {"runs": rows, "heldout": held}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print("\nall checks held" if all_good else "\nSOME CHECKS FAILED")
    return 0 if all_good else 1


if __name__ == "__main__":
    sys.exit(main())
