#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by --trace.

Checks that the document parses, that every event carries the fields
its phase requires, that async begin/end events pair up, that no span
begins while another with the same (pid, cat, id, name) is still open
(the viewer would pair them wrongly), and that the expected track
families (die ops, bus transfers, NoC packets, copyback stages) are
present. CI runs this over the bench_fig07_main trace; it is also
handy locally:

    python3 tools/trace_check.py trace.json
    python3 tools/trace_check.py --require-tracks trace.json
"""

import argparse
import json
import sys

# Track families the fig07 DSSDNoc run must populate (process names).
EXPECTED_PROCESSES = ["nand", "bus", "noc", "copyback", "gc", "host"]
# Event categories that must appear alongside them.
EXPECTED_CATEGORIES = ["die", "bus", "packet", "cbstage", "io"]
# Span names the fault-injection subsystem may emit on its "fault"
# track: recovery-ladder steps, NoC retransmits, and the copyback
# abort/front-end-fallback pair. Anything else on that track is a bug.
FAULT_SPAN_NAMES = {"retry", "soft", "abort", "retransmit", "fallback"}

REQUIRED_FIELDS = {
    "X": ("pid", "tid", "name", "ts", "dur"),
    "b": ("pid", "name", "cat", "id", "ts"),
    "e": ("pid", "name", "cat", "id", "ts"),
    "C": ("pid", "name", "ts", "args"),
    "M": ("pid", "name", "args"),
}


def fail(msg):
    print(f"trace_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="trace_event JSON file")
    ap.add_argument(
        "--require-tracks",
        action="store_true",
        help="also require the fig07 track families "
        f"({', '.join(EXPECTED_PROCESSES)})",
    )
    ap.add_argument(
        "--require-fault-tracks",
        action="store_true",
        help="also require the fault-injection track family "
        "(a 'fault' process with retry/fallback spans)",
    )
    args = ap.parse_args()

    with open(args.trace) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"not valid JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents array")
    if not events:
        fail("empty traceEvents array")

    processes = {}  # pid -> name
    categories = set()
    open_spans = {}  # (pid, cat, id, name) -> begin count
    counts = {}

    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in REQUIRED_FIELDS:
            fail(f"event {i}: unknown phase {ph!r}")
        counts[ph] = counts.get(ph, 0) + 1
        for field in REQUIRED_FIELDS[ph]:
            if field not in ev:
                fail(f"event {i} (ph={ph}): missing field {field!r}")
        if "ts" in ev and ev["ts"] < 0:
            fail(f"event {i}: negative timestamp {ev['ts']}")
        if ph == "X" and ev["dur"] < 0:
            fail(f"event {i}: negative duration {ev['dur']}")
        if ph == "M" and ev["name"] == "process_name":
            processes[ev["pid"]] = ev["args"]["name"]
        if "cat" in ev:
            categories.add(ev["cat"])
        if ph in ("b", "e"):
            key = (ev["pid"], ev["cat"], ev["id"], ev["name"])
            if ph == "b" and open_spans.get(key, 0) > 0:
                fail(f"event {i}: async span {key} begins while one "
                     f"with the same key is still open")
            open_spans[key] = open_spans.get(key, 0) + (
                1 if ph == "b" else -1
            )
        if ev.get("cat") == "fault" and ph in ("b", "e"):
            if ev["name"] not in FAULT_SPAN_NAMES:
                fail(
                    f"event {i}: unknown fault span {ev['name']!r} "
                    f"(expected one of {sorted(FAULT_SPAN_NAMES)})"
                )

    unbalanced = {k: v for k, v in open_spans.items() if v != 0}
    if unbalanced:
        sample = next(iter(unbalanced))
        fail(
            f"{len(unbalanced)} async span(s) unbalanced, "
            f"e.g. {sample} (begin-end delta {unbalanced[sample]})"
        )

    if args.require_tracks:
        names = set(processes.values())
        missing = [p for p in EXPECTED_PROCESSES if p not in names]
        if missing:
            fail(f"missing process track(s): {', '.join(missing)}")
        missing_cat = [c for c in EXPECTED_CATEGORIES if c not in categories]
        if missing_cat:
            fail(f"missing event category(s): {', '.join(missing_cat)}")

    if args.require_fault_tracks:
        if "fault" not in set(processes.values()):
            fail("missing 'fault' process track")
        if "fault" not in categories:
            fail("missing 'fault' event category")

    summary = ", ".join(f"{ph}:{n}" for ph, n in sorted(counts.items()))
    print(
        f"trace_check: OK: {len(events)} events ({summary}), "
        f"{len(processes)} process tracks "
        f"({', '.join(sorted(set(processes.values())))})"
    )


if __name__ == "__main__":
    main()
