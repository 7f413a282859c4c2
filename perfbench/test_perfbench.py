#!/usr/bin/env python3
"""Self-test of the benchmark: the smoke mode passes, and the output
checks fire on runs broken on purpose.

    python3 perfbench/test_perfbench.py

Builds the benchmark on first use (see run.py). Scratch files go under
.bench_build/selftest.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def broken_run(workload, inject):
    r = run_py("--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", "0", "--smoke", "--inject", inject)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    return json.loads(lines[-1]), lines


class SelfTest(unittest.TestCase):
    def assertFailedRun(self, result):
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_smoke_passes_every_workload(self):
        r = run_py("--smoke")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout.count(": ok ("), 6, r.stdout)

    def test_zero_request_run_is_failed(self):
        result, lines = broken_run("direct-randwrite", "zero-io")
        self.assertFailedRun(result)
        self.assertIn("no request completed", "\n".join(lines))

    def test_perturbed_fingerprint_is_failed(self):
        result, lines = broken_run("buffered-seqwrite",
                                   "perturb-fingerprint")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("fingerprint differs", "\n".join(lines))

    def test_gc_on_the_system_bus_is_failed(self):
        result, lines = broken_run("buffered-seqwrite", "baseline-arch")
        self.assertFailedRun(result)
        self.assertIn("GC traffic crossed the system bus", "\n".join(lines))

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run_py("--workload", "direct-randwrite", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)

    def test_compare_refuses_mixed_host_contexts(self):
        os.makedirs(SCRATCH, exist_ok=True)
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        paths = []
        for name, nproc in (("base", 4), ("change", 1)):
            rec = {"workload": "direct-randwrite", "seed": 1, "trace": 0,
                   "context": {"nproc": nproc, "compiler": "gcc",
                               "build_type": "Release", "dssd_trace": 1,
                               "dssd_audit": 0, "commit": name},
                   "fingerprint": "x", "result": result}
            paths.append(os.path.join(SCRATCH, name + ".jsonl"))
            with open(paths[-1], "w") as f:
                f.write(json.dumps(rec) + "\n")
        r = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                            *paths], capture_output=True, text=True)
        self.assertEqual(r.returncode, 2, r.stdout)
        self.assertIn("refusing to compare", r.stdout)


if __name__ == "__main__":
    unittest.main()
