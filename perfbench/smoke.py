#!/usr/bin/env python3
"""Smoke test for the repository benchmark (about a minute after the build).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks, through perfbench/run.py
with --seconds 1:
  * the untraced result line: whole-number counts, every op correct,
    every end-to-end metric nonzero (run.py itself refuses a result whose
    keys, metric names or units differ from BENCHMARK.json);
  * the traced result line: every op correct; two traced runs with the
    same seed write byte-identical deterministic counts,
    and the span file is a Chrome trace whose events have the fields
    report_lint's traceEventSchema requires (and, when a repository
    build has tools/report_lint, that report_lint accepts it);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits nonzero without printing a result.
Exit code 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SEED = 3
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_result(workload, trace, result):
    tag = f"{workload} trace={trace}"
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{tag}: op counts")
    check(result["correct"] is True and result["failed"] == 0,
          f"{tag}: every op correct")
    if not trace:
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        check(not zero, f"{tag}: end-to-end metrics nonzero {zero or ''}")


def check_chrome(path):
    events = json.loads(path.read_text())
    required = {"name": str, "cat": str, "ph": str, "ts": int, "dur": int,
                "pid": int, "tid": int}
    good = isinstance(events, list) and len(events) > 0 and all(
        all(isinstance(e.get(k), t) for k, t in required.items())
        and e["ph"] == "X" and e["ts"] >= 0 and e["dur"] >= 0
        for e in events)
    check(good, f"{path.name}: Chrome trace events well-formed")
    lint = Path(os.environ.get("REPORT_LINT",
                               ROOT / "build" / "tools" / "report_lint"))
    if lint.is_file():
        proc = subprocess.run(
            [str(lint), "--schema",
             str(ROOT / "tools" / "bench_report.schema.json"),
             "--chrome-trace", str(path)], capture_output=True, text=True)
        check(proc.returncode == 0, f"{path.name}: report_lint --chrome-trace")
    else:
        print(f"skip report_lint (no {lint})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        proc = run(workload, 0)
        check(proc.returncode == 0, f"{workload}: run.py exit 0")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            continue
        check_result(workload, 0, result_of(proc))

        counts = OUT / f"{workload}-seed{SEED}.counts.txt"
        texts = []
        for _ in range(2):
            proc = run(workload, 1)
            check(proc.returncode == 0, f"{workload}: traced run.py exit 0")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                break
            check_result(workload, 1, result_of(proc))
            texts.append(counts.read_bytes())
        if len(texts) == 2:
            check(texts[0] == texts[1],
                  f"{workload}: traced counts byte-identical across runs")
            check_chrome(OUT / f"{workload}-seed{SEED}.trace.json")

    isolated = OUT / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", isolated)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, isolated / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=isolated)
    printed = proc.stdout.strip().split("\n")[-1].startswith("{")
    check(proc.returncode != 0 and not printed,
          "without the program's sources: nonzero exit, no result")
    shutil.rmtree(isolated)

    print("\nsmoke: " + ("all checks held" if not failures
                         else f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
