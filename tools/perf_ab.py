#!/usr/bin/env python3
"""Same-run A/B of the repository benchmark: a base commit against the tree.

    python3 tools/perf_ab.py BASE_SHA [--workload W] [--pairs N]
                             [--seconds S] [--traced-pairs K] [--work DIR]

Run from anywhere inside the repository. The base commit is extracted with
`git archive BASE | tar -x` (no worktree, no network) and each side is
built by its own perfbench/run.py into its own CARGO_TARGET_DIR. Then, per
workload, N pairs of `perfbench/run.py --trace 0` runs alternate base and
head with the same seed (pair i uses seed i; odd pairs run base first, even
pairs head first). Each end-to-end metric is reported as both sides'
medians and quartiles, the median head/base ratio with its min-max over
the pairs, and the number of pairs head won.
K traced pairs (`--trace 1 --seed 3`) follow: their per-layer medians are
printed side by side, and the two sides' `.counts.txt` work counts are
compared byte for byte (exit code 1 if they differ).

The head side is the working tree as it is, including uncommitted edits.
Without --work everything (base checkout, both builds) goes to a temporary
directory that is deleted at exit; with --work DIR it is kept, so a second
run against the same base rebuilds nothing.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent


def log(message):
    print(f"# {message}", file=sys.stderr, flush=True)


def extract_base(sha, work):
    """The base tree under work/base, reused if it is already that commit."""
    full = subprocess.run(["git", "-C", str(HEAD), "rev-parse", "--verify",
                           sha + "^{commit}"], capture_output=True, text=True,
                          check=True).stdout.strip()
    base = work / "base"
    stamp = work / "base.sha"
    if base.is_dir() and stamp.is_file() and stamp.read_text() == full:
        return base, full
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(HEAD), "archive", full],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(base)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"perf_ab: git archive {sha} failed")
    stamp.write_text(full)
    return base, full


def run(root, target, workload, seed, seconds, trace):
    """One perfbench/run.py call in checkout `root`; the metrics dict."""
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perf_ab: {root} {workload} seed {seed} failed")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if result["failed"] != 0:
        log(f"{root.name} {workload} seed {seed}: "
            f"{result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Median [first quartile-third quartile]."""
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.4g} [{q1:.4g}-{q3:.4g}]"


def ratio_row(name, base, head, better=None):
    """One table row: both sides' medians and quartiles, the head/base
    ratio's median and min-max, and the pairs head won (ties count for
    neither side) when the metric has a better direction."""
    ratios = [h / b for b, h in zip(base, head) if b != 0]
    if not ratios:
        return f"| {name} | - | - | - | - | - |"
    wins = "-"
    if better in ("higher", "lower"):
        won = sum((h > b) if better == "higher" else (h < b)
                  for b, h in zip(base, head))
        wins = f"{won}/{len(base)}"
    return (f"| {name} | {spread(base)} | {spread(head)} | "
            f"{statistics.median(ratios):.3f} | "
            f"{min(ratios):.3f}-{max(ratios):.3f} | {wins} |")


HEADER = ("| metric | base median [IQR] | head median [IQR] | head/base "
          "median | head/base min-max | head wins |\n|---|---|---|---|---|---|")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json "
                             "workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=1)
    parser.add_argument("--work", type=Path)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.traced_pairs < 1:
        sys.exit("perf_ab: --pairs, --seconds and --traced-pairs must be "
                 ">= 1")

    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    work = args.work.resolve() if args.work else Path(
        tempfile.mkdtemp(prefix="perf_ab."))
    work.mkdir(parents=True, exist_ok=True)
    try:
        base_root, full = extract_base(args.base, work)
        sides = [("base", base_root, work / "base-target"),
                 ("head", HEAD, work / "head-target")]
        identical = True
        for workload in workloads:
            samples = {"base": [], "head": []}
            for pair in range(1, args.pairs + 1):
                # Alternate which side runs first.
                for side, root, target in sides[::1 if pair % 2 else -1]:
                    samples[side].append(run(root, target, workload, pair,
                                             args.seconds, 0))
                log(f"{workload} pair {pair}/{args.pairs} done")
            print(f"\n## {workload}: head / base, {args.pairs} interleaved "
                  f"pairs x {args.seconds} s (base {full[:12]})\n")
            print(HEADER)
            for name in samples["base"][0]:
                print(ratio_row(f"{name} ({better.get(name, '?')})",
                                [s[name] for s in samples["base"]],
                                [s[name] for s in samples["head"]],
                                better.get(name)))

            traced = {"base": [], "head": []}
            counts = {}
            for pair in range(1, args.traced_pairs + 1):
                for side, root, target in sides[::1 if pair % 2 else -1]:
                    traced[side].append(run(root, target, workload, 3, 3, 1))
                    counts[side] = (root / ".bench_out" /
                                    f"{workload}-seed3.counts.txt")
            same = filecmp.cmp(counts["base"], counts["head"], shallow=False)
            identical = identical and same
            print(f"\nper layer, medians of {args.traced_pairs} traced "
                  f"pair(s) (--seed 3 --seconds 3 --trace 1); "
                  f"{workload}-seed3.counts.txt "
                  f"{'identical' if same else 'DIFFERS'}\n")
            print(HEADER)
            for name in traced["base"][0]:
                print(ratio_row(name, [s[name] for s in traced["base"]],
                                [s[name] for s in traced["head"]]))
        return 0 if identical else 1
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
