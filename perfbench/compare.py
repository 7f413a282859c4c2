#!/usr/bin/env python3
"""Compare two sets of benchmark records written by run.py --out.

    python3 perfbench/compare.py base.jsonl change.jsonl

Refuses (exit 2) when the records come from different host contexts:
core count, compiler, build type or DSSD_TRACE/DSSD_AUDIT. Host times
from different contexts do not compare. The commit may differ; it is
what is being compared.

For each workload and end-to-end metric it prints each side's median
and quartiles, and flags a regression when the change's median is worse
than the base's by more than the metric's bound in BENCHMARK.json
(exit 1). For each workload and seed run on both sides it reports
whether the simulated fingerprint changed: a change that moves it is a
behaviour change, not only a speed-up.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def context_key(rec):
    ctx = dict(rec.get("context", {}))
    ctx.pop("commit", None)
    return json.dumps(ctx, sort_keys=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def compare(base, change, spec):
    contexts = {context_key(r) for r in base + change}
    if len(contexts) != 1:
        print("refusing to compare: the records come from different host "
              "contexts:")
        for c in sorted(contexts):
            print("  " + c)
        return 2
    status = 0
    workloads = sorted({r["workload"] for r in base + change})
    for w in workloads:
        print(w)
        for m in spec["end_to_end"]:
            sides = []
            for recs in (base, change):
                sides.append([r["result"]["metrics"][m["name"]]["value"]
                              for r in recs
                              if r["workload"] == w and r["trace"] == 0
                              and m["name"] in r["result"]["metrics"]])
            if not all(sides):
                continue
            (b1, bm, b3), (c1, cm, c3) = (quartiles(v) for v in sides)
            worse = (cm - bm) / bm if m["better"] == "lower" else \
                (bm - cm) / bm
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                status = 1
            print("  %-14s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]"
                  "  worse by %+.1f%% (bound %.0f%%)  %s"
                  % (m["name"], bm, b1, b3, cm, c1, c3, 100 * worse,
                     100 * m["bound"], verdict))
        fb = {r["seed"]: r.get("fingerprint") for r in base
              if r["workload"] == w}
        fc = {r["seed"]: r.get("fingerprint") for r in change
              if r["workload"] == w}
        moved = sorted(s for s in fb.keys() & fc.keys() if fb[s] != fc[s])
        print("  simulated outputs: %s" % (
            "changed for seeds %s (behaviour change)" % moved if moved
            else "unchanged"))
    return status


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return compare(load(sys.argv[1]), load(sys.argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main())
