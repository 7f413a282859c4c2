#!/usr/bin/env python3
"""List the src/ functions that no bench, example or dssd_sim run executes.

Build the coverage tree, then run this from the root of the checkout:

    cmake --preset coverage
    cmake --build --preset coverage -j4
    python3 tools/coverage/unreached.py

The script first deletes the tree's old .gcda counters, then runs every
surface the repository ships:

  - the 22 figure, table and ablation benches at their default size,
    with --threads 1 where a bench takes it: GCC uses atomic profile
    counters when -pthread is given, and a sweep contending on them
    runs many times slower;
  - dssd_sim once per flag family (DSSD_SIM_RUNS below);
  - the five examples.

Tests are not a surface: a function that only a test calls is a
candidate for deletion. perfbench builds its own binary outside this
tree, so the script cannot see what perfbench calls; check
perfbench/perfbench.cc before deleting anything listed here.

It then reads `gcov -j` JSON for every object under
build-coverage/{src,bench,tools,examples}. Functions are merged by
(file, start line, name), keeping the largest count, because a header
function is emitted once per translation unit that uses it. The report
lists the src/ functions that no run executed, grouped by file, with
the number of source lines each spans and the totals. An inline
function that only a test uses is emitted in no object read here, so
it does not appear at all.

Options: --build DIR runs and reads another coverage tree.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OBJECT_DIRS = ["src", "bench", "tools", "examples"]
# bench_micro times kernels with google-benchmark and is not a surface.
# It is neither run nor read: its objects hold engine templates that
# only its own lambdas instantiate.
SKIPPED_TARGETS = ["bench_micro"]
EXAMPLES = ["quickstart", "gc_interference", "global_copyback",
            "endurance_study", "trace_replay"]
# Benches that run their points one by one and take no --threads.
SERIAL_BENCHES = ["bench_abl_copyback", "bench_abl_dsm",
                  "bench_tab01_config", "bench_tab02_configs",
                  "bench_tab04_overhead"]

# One dssd_sim run per flag family, at the default geometry over a
# short window. {tmp} is the temporary directory the runs execute in.
DSSD_SIM_RUNS = [
    ["--stats={tmp}/stats.json", "--trace-out={tmp}/trace.json"],
    ["--faults"],
    ["--tenants=qd:16,w:1;qd:16,w:3,prio:1", "--arbiter=wrr",
     "--arrival=poisson:50000"],
    ["--tenants=2", "--arbiter=prio", "--slo=500"],
    ["--shards=2", "--array-gc=token", "--parity", "--engine-threads=2"],
    ["--trace=prn_0"],
    ["--topology=ring"],
    ["--topology=crossbar"],
    ["--seeds=2", "--threads=1"],
]
DSSD_SIM_WINDOW = "--window-ms=5"


def benches(build):
    bench_dir = os.path.join(build, "bench")
    names = sorted(n for n in os.listdir(bench_dir)
                   if n.startswith("bench_") and n not in SKIPPED_TARGETS
                   and os.access(os.path.join(bench_dir, n), os.X_OK))
    return [os.path.join(bench_dir, n) for n in names]


def surfaces(build, tmp):
    """(label, argv) of every run, in order."""
    runs = [(os.path.basename(b), [b] + (
        [] if os.path.basename(b) in SERIAL_BENCHES else ["--threads", "1"]))
        for b in benches(build)]
    sim = os.path.join(build, "tools", "dssd_sim")
    for flags in DSSD_SIM_RUNS:
        args = [f.format(tmp=tmp) for f in flags]
        runs.append(("dssd_sim " + " ".join(flags),
                     [sim, DSSD_SIM_WINDOW] + args))
    for name in EXAMPLES:
        runs.append((name, [os.path.join(build, "examples", name)]))
    return runs


def run_surfaces(build):
    for dirpath, _, files in os.walk(build):
        for f in files:
            if f.endswith(".gcda"):
                os.remove(os.path.join(dirpath, f))
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in surfaces(build, tmp):
            start = time.monotonic()
            r = subprocess.run(argv, cwd=tmp, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
            sys.stderr.write("%7.1f s  %s\n"
                             % (time.monotonic() - start, label))
            if r.returncode != 0:
                sys.exit("unreached: '%s' exited %d"
                         % (" ".join(argv), r.returncode))


def source_root(build):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    sys.exit("unreached: no CMAKE_HOME_DIRECTORY in %s" % build)


def gcov_documents(build):
    """Yield the gcov JSON document of every object under OBJECT_DIRS."""
    skipped = {t + ".dir" for t in SKIPPED_TARGETS}
    for sub in OBJECT_DIRS:
        for dirpath, _, files in os.walk(os.path.join(build, sub)):
            if os.path.basename(dirpath) in skipped:
                continue
            for f in sorted(files):
                if not f.endswith(".gcno"):
                    continue
                r = subprocess.run(
                    ["gcov", "-j", "-t", os.path.join(dirpath, f)],
                    cwd=dirpath, capture_output=True, text=True)
                if r.returncode != 0:
                    sys.exit("unreached: gcov failed on %s:\n%s"
                             % (f, r.stderr))
                yield json.loads(r.stdout)


def merged_functions(build):
    """{(file, start line, name): function record with the top count}."""
    funcs = {}
    for doc in gcov_documents(build):
        cwd = doc.get("current_working_directory", "")
        for src in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, src["file"]))
            for fn in src["functions"]:
                key = (path, fn["start_line"], fn["name"])
                old = funcs.get(key)
                if old is None or fn["execution_count"] > \
                        old["execution_count"]:
                    funcs[key] = dict(fn, file=path)
    return funcs


def report(funcs, root):
    src = os.path.join(root, "src") + os.sep
    by_file = collections.defaultdict(list)
    total = 0
    for fn in funcs.values():
        if not fn["file"].startswith(src):
            continue
        total += 1
        if fn["execution_count"] == 0:
            by_file[os.path.relpath(fn["file"], root)].append(fn)
    count = lines = 0
    for path in sorted(by_file):
        print(path)
        for fn in sorted(by_file[path], key=lambda f: f["start_line"]):
            span = fn["end_line"] - fn["start_line"] + 1
            print("  %5d  %4d lines  %s"
                  % (fn["start_line"], span, fn["demangled_name"]))
            count += 1
            lines += span
    print("unreached: %d of %d src/ functions (%d lines) in %d files"
          % (count, total, lines, len(by_file)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default=os.path.join(ROOT, "build-coverage"))
    args = ap.parse_args()
    build = os.path.abspath(args.build)
    run_surfaces(build)
    report(merged_functions(build), source_root(build))


if __name__ == "__main__":
    main()
