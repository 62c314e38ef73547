#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, one process each
    python3 perfbench/run.py --selftest     # reduced sizes, every check

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. The last line of standard output is the JSON
result of the workload; see perfbench/README.md for the metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hepnos_loader", "mobject_ior", "loadgen_montage"]
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "simkit", "engine.hpp")):
        sys.exit("perfbench: program sources (src/) not found next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace, reduced=False,
            quiet=False):
    """Run one workload in its own process; returns (exit code, stdout).
    The per-round log goes to standard error unless `quiet`."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reduced:
        cmd.append("--reduced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.PIPE if quiet else None,
                          timeout=RUN_TIMEOUT_S)
    if quiet and proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("sim_digest "):
            return line.split()[1]
    return None


def selftest(binary):
    """Every workload at reduced size, untraced and traced: every check must
    pass, and the traced run must simulate exactly what the untraced ran."""
    status = 0
    for w in WORKLOADS:
        ok = True
        results = {}
        for trace in (0, 1):
            code, out = run_one(binary, w, 7, 0.5, trace, reduced=True,
                                quiet=True)
            res = json.loads(out.splitlines()[-1]) if out.strip() else {}
            results[trace] = (code, digest_of(out), res)
            if code != 0 or not res.get("correct"):
                print(f"FAIL {w} trace {trace}: exit {code}")
                ok = False
        same = results[0][1] is not None and results[0][1] == results[1][1]
        if not same:
            print(f"FAIL {w}: traced and untraced simulations differ")
            ok = False
        print(f"{'ok  ' if ok else 'FAIL'} {w}")
        status = status or (0 if ok else 1)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small inputs, every check (for testing)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload is None:
        status = 0
        for w in WORKLOADS:
            code, out = run_one(binary, w, args.seed, args.seconds, args.trace,
                                args.reduced)
            print(f"{w}: {out.splitlines()[-1] if out.strip() else '(no result)'}")
            status = status or code
        return status
    code, out = run_one(binary, args.workload, args.seed, args.seconds,
                        args.trace, args.reduced)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
