#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Builds perfbench/rmabench.cpp together with the rmalock library
(from src/, with the repository's own CMake flags) into .bench_build/perfbench,
runs one workload and prints rmabench's report. The last line of standard
output is the JSON result, after it has been checked against the metric and
workload names declared in BENCHMARK.json. --selftest runs rmabench's
self-tests and checks BENCHMARK.json against rmabench's own name tables.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "rmabench")
SPAN_DIR = os.path.join(BUILD_ROOT, "spans")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    return proc.returncode == 0


def build():
    """Configures (once) and incrementally builds rmabench; serialized by a
    file lock so concurrent runs in one checkout never race on the tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found at {os.path.join(ROOT, 'src')}; "
             "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
            if not home or home[0].split("=", 1)[1].strip() != HERE:
                shutil.rmtree(BUILD)  # configured for another checkout
        log_path = os.path.join(BUILD_ROOT, "build.log")
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_logged(cmd, log_path):
                shutil.rmtree(BUILD, ignore_errors=True)
                fail(f"configure failed; see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        if not run_logged(["cmake", "--build", BUILD, "--target", "rmabench",
                           "-j", jobs], log_path):
            fail(f"build failed; see {log_path}")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def rmabench_tables():
    out = subprocess.run([BINARY, "--list"], capture_output=True, text=True,
                         check=True).stdout
    tables = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, *rest = line.split()
        tables[kind].append(tuple(rest))
    return tables


def check_spec(spec):
    """Problems with BENCHMARK.json against rmabench's name tables."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    tables = rmabench_tables()
    if [w["name"] for w in spec["workloads"]] != [w[0] for w in tables["workload"]]:
        problems.append("workloads differ from rmabench's")
    for group in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[group]]
        if declared != tables[group]:
            problems.append(f"{group} metrics differ from rmabench's")
    return problems


def check_result(result, spec, trace):
    """Problems with one result line against BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    group = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        return ["metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(expected) - set(got))}, "
                f"extra {sorted(set(got) - set(expected))}"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    spec = load_spec()
    if args.selftest:
        ok = subprocess.run([BINARY, "--selftest"], cwd=ROOT).returncode == 0
        problems = check_spec(spec)
        for p in problems:
            print(f"selftest FAIL: BENCHMARK.json: {p}")
        if not problems:
            print("selftest PASS: BENCHMARK.json names match rmabench's tables")
        sys.exit(0 if ok and not problems else 1)

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    os.makedirs(SPAN_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", SPAN_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), flush=True)
        fail(f"{args.workload} failed with exit code {proc.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("rmabench's last line is not JSON", 1)
    problems = check_result(result, spec, args.trace)
    if problems:
        fail("; ".join(problems), 1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
