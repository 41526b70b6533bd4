#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/otw_ledger from this checkout and runs it.

One workload per invocation; the last line of stdout is the JSON result:

    python3 perfbench/run.py --workload phold-1w --seed 7 --seconds 28 --trace 0

--trace 0 prints the end-to-end metrics (medians over the run's iterations),
--trace 1 the per-layer metrics of a separate traced run. Build output goes
to stderr; the build tree is .bench_build/ at the root of the checkout.

    python3 perfbench/run.py --self-check

runs every workload of BENCHMARK.json at a tiny size, checks that each
prints exactly the metrics BENCHMARK.json names, and that two raid-now runs
print identical modeled makespans and event counts.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "otw_ledger")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quietly(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/ beside perfbench/; cannot build")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quietly(configure, BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quietly(["cmake", "--build", BUILD_DIR, "--target", "otw_ledger",
                        "-j", jobs], BUILD_TIMEOUT_S)


def source_id():
    """The git commit, or a hash of the built sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                suffix = "+dirty" if dirty.stdout.strip() else ""
                return f"git:{head.stdout.strip()}{suffix}"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return f"tree:{digest.hexdigest()[:12]}"


def run_ledger(args, capture):
    """Runs the benchmark binary in its own process group, so a timeout
    stops the shard processes it forked too. Returns (code, stdout)."""
    proc = subprocess.Popen([BINARY] + args, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    return proc.returncode, out or ""


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_check():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    problems = []
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("BENCHMARK.json has no setup_s end-to-end metric")
    if any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        problems.append("an end-to-end bound exceeds 0.25")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    commit = source_id()
    os.makedirs(SPANS_DIR, exist_ok=True)
    raid = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_ledger(["--workload", workload, "--seed", "3", "--seconds", "1",
                                    "--trace", str(trace), "--size", "tiny",
                                    "--commit", commit, "--spans-dir", SPANS_DIR], True)
            result = result_of(out) if code == 0 else None
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                problems.append(f"{where}: missing {missing}, unexpected {extra} "
                                "(or a unit differs)")
            if workload == "raid-now" and trace == 0:
                raid.append(out)
    # Determinism canary: a second raid-now run must print the same modeled
    # makespan and event counts.
    code, out = run_ledger(["--workload", "raid-now", "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--size", "tiny", "--commit", commit], True)
    raid.append(out if code == 0 else "")
    if len(raid) == 2:
        first, second = (result_of(o) if o else None for o in raid)
        counts = [[line for line in o.splitlines() if line.startswith("# counts")]
                  for o in raid]
        if first is None or second is None:
            problems.append("raid-now determinism: a run printed no result")
        elif (first["metrics"]["modeled_exec_s"]["value"]
              != second["metrics"]["modeled_exec_s"]["value"]):
            problems.append("raid-now determinism: modeled_exec_s differs between runs")
        elif not counts[0] or counts[0] != counts[1]:
            problems.append(f"raid-now determinism: counts differ {counts}")
    for problem in problems:
        log(f"self-check: {problem}")
    print(json.dumps({"self_check": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        log("build failed")
        return 1
    if args.self_check:
        return self_check()
    os.makedirs(SPANS_DIR, exist_ok=True)
    code, _ = run_ledger(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--size", args.size, "--commit", source_id(),
                          "--spans-dir", SPANS_DIR], False)
    return code


if __name__ == "__main__":
    sys.exit(main())
