#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --determinism [--seed <n>] [--seconds <s>]

Run from the root of the repository. The benchmark is a cargo package of
its own in this directory; it is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target), offline and with the
lock file. The last line of standard output is the result object of the
run (for a single workload).

--workload all runs every workload in turn. --determinism runs the
traced run of every workload twice with one seed and lists the counters
that repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_loops", "trace_churn", "warm_start", "tenants"]
# Workloads whose compiles and emissions run on a pool thread.
TIMING_DEPENDENT = {"tenants"}


def target_dir():
    """Cargo's target directory; a relative one is relative to the root."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    """Builds the benchmark; returns the binary's path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    """Runs one workload; returns (exit code, stdout or None)."""
    out_dir = os.path.join(target_dir(), "perfbench-out")
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out-dir", out_dir,
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    return done.returncode, done.stdout


def determinism(binary, seed, seconds):
    """Two traced runs per workload with one seed: which counters repeat."""
    status = 0
    for w in WORKLOADS:
        results = []
        for _ in range(2):
            code, out = run(binary, w, seed, seconds, 1, capture=True)
            if code != 0:
                print(f"{w}: run failed with exit code {code}")
                return code
            results.append(json.loads(out.strip().splitlines()[-1])["metrics"])
        a, b = results
        counts = [k for k, v in a.items() if v["unit"] in ("count", "bytes") and not k.startswith("bench.")]
        zero = [k for k in counts if a[k]["value"] == b[k]["value"] == 0]
        same = [k for k in counts if a[k]["value"] == b[k]["value"] and k not in zero]
        differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
        note = " (timing-dependent: compiles run on a pool thread)" if w in TIMING_DEPENDENT else ""
        print(f"{w}{note}: {len(same)} of {len(counts) - len(zero)} nonzero counters repeat exactly")
        print(f"  repeat: {', '.join(same) or '-'}")
        print(f"  zero in both runs: {', '.join(zero) or '-'}")
        for k in differ:
            print(f"  differ: {k} {a[k]['value']} vs {b[k]['value']}")
        if differ and w not in TIMING_DEPENDENT:
            status = 1
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()
    if not args.determinism and not args.workload:
        p.error("--workload or --determinism is required")
    binary = build()
    if binary is None:
        return 1
    if args.determinism:
        return determinism(binary, args.seed, args.seconds)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        code, _ = run(binary, w, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
