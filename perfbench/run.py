#!/usr/bin/env python3
"""Repository benchmark: one command for every workload in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads N]

Run from the repository root. Builds the library, the `stemroot` CLI and
the benchmark driver from source (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints
as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
for --trace 0, every per_layer metric for --trace 1. Per-layer metrics of
layers the workload never enters read 0. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure (once) and build the benchmark package; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no stemroot sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="library pool size; 0 = hardware concurrency")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    # Relative paths keep the server's AF_UNIX socket path short.
    work_dir = os.path.relpath(os.path.join(build_root, "perfbench-work"))
    os.makedirs(work_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "bin", "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--threads", str(args.threads), "--work-dir", work_dir,
        "--stemroot", os.path.join(build_dir, "bin", "stemroot"),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S}s")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"driver exited with code {run.returncode}")

    result = None
    for line in run.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if result is None:
        fail("driver printed no result")
    # Everything the driver measured, whichever list it belongs to
    # (selfcheck.py reads the end-to-end figures of traced runs here).
    print("measured " + json.dumps(result["metrics"], sort_keys=True))
    for why in result["failures"]:
        print(f"FAILED: {why}")

    produced = result["metrics"]
    metrics = {}
    for m in wanted:
        got = produced.pop(m["name"], None)
        if got is None:
            if not args.trace:
                fail(f"driver did not measure {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got
    unknown = sorted(set(produced) - known)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
