#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, configured from perfbench/CMakeLists.txt as a Release
build. The run prints the binary's run record and metric table, and as its
last line the binary's JSON result, after checking that the result names
every metric BENCHMARK.json lists for the mode (end-to-end for --trace 0,
per-layer for --trace 1). Traced runs write their spans to
<build>/traces/. Every result is also saved with its run record under
<build>/results/. Exits non-zero without a result line if the build, the
run or that check fails. --self-test builds and runs the benchmark's own
unit tests instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(out, target)


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=30)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in tops:
        for base, dirs, names in os.walk(top):
            dirs.sort()
            files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def listed_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without one."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests], timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must not be negative")

    binary = build("perfbench")
    out = build_dir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", source_id()]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        fail(f"perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line of output is not JSON")
    missing = [m for m in (listed_metrics(args.trace) or []) if m not in result["metrics"]]
    if missing:
        fail("result lacks metrics listed in BENCHMARK.json: " + ", ".join(missing))

    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    record = next((l for l in lines if l.startswith("run: ")), "")
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump({"run": record[len("run: "):], "result": result}, f, indent=1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
