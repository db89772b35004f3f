#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the program's src/ plus the measuring program smab_perf) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only check the build is current. Files the run writes go
to .bench_out/. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; every other line starts
with "#". Exit code 0 means a result was printed.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def git_sha():
    """HEAD's commit from the checkout's own .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(build_dir), "-j", "2"]
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fresh = not (build_dir / "CMakeCache.txt").exists()
        ok = (not fresh or run_quiet(configure, BUILD_TIMEOUT_S)) and \
            run_quiet(compile_, BUILD_TIMEOUT_S)
        if not ok and not fresh:
            # A stale cache (say, from a moved checkout): start over once.
            for entry in build_dir.iterdir():
                if entry.name != ".lock":
                    if entry.is_dir():
                        shutil.rmtree(entry)
                    else:
                        entry.unlink()
            ok = run_quiet(configure, BUILD_TIMEOUT_S) and \
                run_quiet(compile_, BUILD_TIMEOUT_S)
    if not ok:
        fail("build failed")
    return build_dir / "smab_perf"


def run_program(cmd):
    """Run smab_perf, stopping it if we are stopped; returns (code, out)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"smab_perf did not finish within {RUN_TIMEOUT_S} s")
    return child.returncode, out


def check_result(result, spec, traced):
    """The result object must carry exactly the declared metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys")
    if spec is None:
        return
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, or a unit differs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}", 2)
    spec = load_spec()
    if spec is not None and args.workload not in \
            [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)

    program = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    code, out = run_program([
        str(program), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out_dir), "--git-sha", git_sha()])
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"smab_perf exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("smab_perf printed no result")
    check_result(result, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line if line.startswith("#") else "# " + line)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
