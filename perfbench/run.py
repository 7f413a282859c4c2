#!/usr/bin/env python3
"""Build and run the dSSD host-cost benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload buffered-seqwrite --seed 1 \\
        --seconds 10 --trace 0

The first run configures and builds the simulator libraries and the
benchmark binary into .bench_build/ (CMake, Release); later runs only
rebuild what changed. Build output goes to stderr. The binary's output
is passed through, so the last line of stdout is the JSON result.

--smoke runs every workload on tiny windows, traced and untraced, and
exits non-zero unless all of them pass their output checks.
--out FILE appends one JSON record per run (host context, fingerprint,
result) for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["buffered-seqwrite", "direct-randwrite", "array-readmix"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(workload, seed, seconds, trace, smoke=False, inject=None):
    """Run the binary once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_id()]
    if smoke:
        cmd.append("--smoke")
    if inject:
        cmd += ["--inject", inject]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s-seed%s.json" % (workload, seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (workload,
                                                         RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout.splitlines()


def record(workload, seed, trace, lines):
    """The --out record of one run: context, fingerprint and result."""
    rec = {"workload": workload, "seed": seed, "trace": trace}
    for line in lines:
        if line.startswith("context: "):
            rec["context"] = json.loads(line[len("context: "):])
        elif line.startswith("fingerprint: "):
            rec["fingerprint"] = line[len("fingerprint: "):]
    rec["result"] = json.loads(lines[-1])
    return rec


def smoke():
    ok = True
    for workload in WORKLOADS:
        fingerprints = set()
        for trace in (0, 1):
            code, lines = run(workload, 1, 1, trace, smoke=True)
            if code != 0 or not lines:
                print("%s trace=%d: benchmark exited %d"
                      % (workload, trace, code))
                ok = False
                continue
            rec = record(workload, 1, trace, lines)
            res = rec["result"]
            fingerprints.add(rec.get("fingerprint"))
            passed = res["correct"] and res["failed"] == 0
            ok = ok and passed
            print("%s trace=%d: %s (%d attempted, %d failed)"
                  % (workload, trace, "ok" if passed else "FAILED",
                     res["attempted"], res["failed"]))
        if len(fingerprints) != 1:
            print("%s: traced and untraced fingerprints differ" % workload)
            ok = False
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject",
                    choices=("zero-io", "perturb-fingerprint",
                             "baseline-arch"),
                    help="break the run on purpose (self-test)")
    ap.add_argument("--out", help="append a JSON record of the run here")
    args = ap.parse_args()
    if not args.workload and (args.inject or not args.smoke):
        ap.error("--workload is required")

    build()
    if args.smoke and not args.inject:
        return smoke()
    code, lines = run(args.workload, args.seed, args.seconds, args.trace,
                      smoke=args.smoke, inject=args.inject)
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        return code or 1
    print("\n".join(lines))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record(args.workload, args.seed, args.trace,
                                      lines)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
