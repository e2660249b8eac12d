#!/usr/bin/env python3
"""Self-checks of the repository benchmark (see perfbench/README.md).

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]
                                   [--workloads a,b,...]

Run from the repository root. For every workload it runs the benchmark
untraced and traced with the same seed and checks that the deterministic
outputs both runs print are identical (tracing changes no work); it
reports the tracing overhead as the traced run's loss of work_per_s. For
batch_sweep and dse_sim it also runs the untraced benchmark with the
library pool at one thread and checks that the deterministic outputs are
byte-identical to the run at hardware concurrency (the repository's
determinism contract). Exit status 1 when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch_sweep", "stream_ooc", "dse_sim", "service_sessions"]
THREAD_INVARIANT = {"batch_sweep", "dse_sim"}


def run(workload, seed, seconds, trace, threads=0):
    """One benchmark run; returns (deterministic dict, measured metrics)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--threads", str(threads)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    det, measured, final = None, None, None
    for line in out.splitlines():
        if line.startswith("deterministic "):
            det = json.loads(line[len("deterministic "):])
        elif line.startswith("measured "):
            measured = json.loads(line[len("measured "):])
        elif line.startswith("{"):
            final = json.loads(line)
    if det is None or measured is None or final is None:
        raise RuntimeError(f"{workload}: incomplete benchmark output")
    if not final["correct"]:
        raise RuntimeError(f"{workload}: a correctness gate failed")
    return det, measured


def diff(a, b, keys):
    return [k for k in sorted(keys) if a.get(k) != b.get(k)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        plain, plain_m = run(workload, args.seed, args.seconds, 0)
        traced, traced_m = run(workload, args.seed, args.seconds, 1)
        common = set(plain) & set(traced)
        bad = diff(plain, traced, common)
        overhead = (plain_m["work_per_s"]["value"] /
                    traced_m["work_per_s"]["value"] - 1.0)
        print(f"{workload}: traced vs untraced: {len(common)} deterministic "
              f"outputs, {len(bad)} differ; tracing overhead "
              f"{overhead * 100:+.1f}% of work_per_s")
        for k in bad[:5]:
            print(f"  {k}: {plain[k]} vs {traced[k]}")
        ok = ok and not bad and len(common) > 0
        if workload not in THREAD_INVARIANT:
            continue
        single, _ = run(workload, args.seed, args.seconds, 0, threads=1)
        bad = diff(plain, single, set(plain) | set(single))
        print(f"{workload}: 1 thread vs {os.cpu_count()} threads: "
              f"{len(plain)} deterministic outputs, {len(bad)} differ")
        for k in bad[:5]:
            print(f"  {k}: {plain.get(k)} vs {single.get(k)}")
        ok = ok and not bad
    print("selfcheck:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
