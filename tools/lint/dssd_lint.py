#!/usr/bin/env python3
"""dssd_lint: the static checker for the dssd simulator sources.

Every figure must regenerate byte for byte from its seed. dssd_lint
guards that contract over every .hh/.cc under its root (src/ by
default): no wall clocks or unseeded PRNGs, no hash-order iteration,
threads only inside the engine group, every stat registered, plus
header, include-layering, policy-registry and tick-arithmetic hygiene.

The checker is lexical. Comments and string literals are blanked, then
R1-R6 match patterns line by line, and R1, R2 and R8-R10 also query
facts extracted from every file of the tree at once: type aliases,
class members, lambdas and the call each is passed to, async trace
spans and Tick-typed names. That lets them see through a `using`
alias, follow a class member into another file, and check properties
no single line shows ("every stat is registered somewhere").

R1  determinism: no wall-clock or C random APIs. The model may not
    consult std::chrono clocks, time(), gettimeofday(), clock(),
    std::random_device or std::rand/srand, nor pull rand/srand/time/
    clock in unqualified through a `using` declaration or directive.
    All randomness flows through the seeded wrapper in sim/rng.hh (the
    one exempted file).

R2  unordered-iteration: no range-for or begin() walk over a
    std::unordered_{map,set,multimap,multiset}. Their traversal order
    depends on the hash seed and rehash history, so iterating one to
    produce output, pick a victim, or feed an audit makes results
    differ between otherwise-identical runs. The container may be
    declared in the file, in its companion header, behind a `using` or
    typedef alias chain, or as a class member anywhere in the tree.
    Use the sorted accessors (e.g. SuperblockRemapTable::
    entriesSorted()) or an ordered container.

R3  capture-budget: the engine stores callbacks inline in pooled
    160-byte event nodes (kInlineCallbackBytes). sim/engine.hh must
    keep declaring that budget and the static_assert pinning
    sizeof(Event) == 160. Default lambda captures ([=] / [&]) are
    banned because they make capture sets - and thus callback sizes -
    invisible at the call site.

R4  header-hygiene: include guards spell the header path
    (src/ftl/mapping.hh -> DSSD_FTL_MAPPING_HH), headers never say
    `using namespace`, and project includes are written as quoted
    subdir paths ("sim/engine.hh"), never relative ("engine.hh").

R5  layering: each src/ subdirectory may only include headers from
    the layers below it, per the include DAG in LAYER_DEPS (the layer
    diagram in DESIGN.md §11). Same-directory includes are always
    allowed. LAYER_DEPS is not the link graph: dssd_core links
    dssd_ecc and dssd_hil but includes neither (the hil edge stays on
    the link line because perfbench links only dssd_core), and it
    includes the header-only reliability/wear.hh without linking
    dssd_reliability. A new cross-layer include is a design decision:
    add it here AND to DESIGN.md, or restructure (the fault/ Routes
    callbacks show the pattern for keeping an upward reference out of
    the DAG).

R6  threading: all cross-thread machinery lives in
    sim/engine_group.{hh,cc} (the conservative parallel-DES
    coordinator). Everywhere else <thread>, <mutex>,
    <condition_variable>, <atomic>, <future>, std::async,
    thread_local and std::this_thread are banned: model code runs
    single-threaded inside one engine (or thread-confined inside one
    shard of an EngineGroup), and ad-hoc threading breaks the
    bit-identical N-thread == 1-thread guarantee. Route new
    parallelism through the group's deterministic (tick, shard,
    emission-order) merge.

R7  policy-registry: every concrete GC policy class in ftl/policy.cc
    (a class deriving from VictimPolicy or AllocPolicy) must be
    constructed by an entry of the factory registry in the same file,
    and every registered policy name must appear in
    tests/ftl/policy_test.cc, read from the tests/ directory beside
    the root. A policy that can be named but not built dies at
    runtime; one that is built but never tested is dead weight. It
    runs when ftl/policy.cc is among the linted files.

R8  shard-confinement: pooled allocator handles (sim/pool.hh PoolPtr,
    BlockPool, makePooled results) carry non-atomic refcounts owned by
    one shard. A lambda passed to postToShard/postToHost may not
    capture one; no pooled object lives at file scope (outside
    sim/pool.hh); and only the array front-end (core/array.*) and sim/
    may call EngineGroup::shardEngine().

R9  stat-registration: every Counter / SampleStat / RateSeries member
    of a class must be referenced by that class's registerStats()
    somewhere in the tree, or it never reaches a --stats dump. Every
    async trace span (cat, name) opened by asyncBegin must be closed
    by a matching asyncEnd somewhere, and vice versa; a computed cat
    or name matches any.

R10 tick-safety: Tick is an unsigned 64-bit nanosecond count. A cast
    of a tick expression to a narrower or signed integer, and a
    narrower declaration seeded from one, truncate after ~4.3 s of
    simulated time (or go negative). A subtraction of two Tick names
    with no ordering guard (a < b, a >= b, max(), min()) anywhere in
    the file wraps to ~1.8e19 when the pair is reversed. All three
    are flagged.

Suppression: a finding is waived by a comment on its line or the line
directly above naming the rule by id or slug:

    // lint:allow R2
    // lint:allow unordered-iteration

A suppression is a claim that the flagged construct is deliberate and
safe - say why in the surrounding comment.

Fixtures: --self-test DIR lints each fixture under DIR and compares its
findings with the `// trip:R<N>` comments on its lines. Annotated lines
must fire exactly the named rules, and a file without annotations must
come back clean. Each file is linted alone, its path under DIR standing
for its place under src/ (DIR/ftl/x.cc is checked as src/ftl/x.cc). A
directory that holds a src/ subdirectory is one fixture tree, linted
whole with that src/ as its root, so R7 reads the tests/ beside it.

Usage: dssd_lint.py [--self-test DIR] [root]
Findings print as file:line: [R<N>] message, one per (file, line,
rule). Exit status: 0 clean, 1 findings or fixture mismatches, 2 usage
error.
"""

import argparse
import re
import sys
from bisect import bisect_right
from pathlib import Path

# Rule ids and their slugs; `// lint:allow <id-or-slug>` suppresses the
# rule on that line (or the line below the comment).
RULE_NAMES = {
    "R1": "determinism",
    "R2": "unordered-iteration",
    "R3": "capture-budget",
    "R4": "header-hygiene",
    "R5": "layering",
    "R6": "threading",
    "R7": "policy-registry",
    "R8": "shard-confinement",
    "R9": "stat-registration",
    "R10": "tick-safety",
}

ALLOW_RE = re.compile(r"lint:allow\s+([A-Za-z0-9-]+)")
TRIP_RE = re.compile(r"//\s*trip:(R\d+)\b")

# ---------------------------------------------------------------------------
# Source text: never match inside strings or comments.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(line):
    """Drop string/char literals and // comments so patterns don't
    match inside them. Block comments are handled by the caller."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    cut = line.find("//")
    if cut >= 0:
        line = line[:cut]
    return line


def logical_lines(text):
    """Yield (lineno, code, raw) with comments/strings stripped from
    `code`; block comments removed."""
    in_block = False
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield i, "", raw
                continue
            line = line[end + 2:]
            in_block = False
        # Remove complete /* ... */ spans, then detect an opener.
        line = re.sub(r"/\*.*?\*/", " ", line)
        start = line.find("/*")
        if start >= 0:
            line = line[:start]
            in_block = True
        yield i, strip_comments_and_strings(line), raw


class SourceText:
    """A file's logical lines, and its stripped code as one stream with
    an offset -> line mapping."""

    def __init__(self, text):
        self.text = text
        self.lines = list(logical_lines(text))
        parts = []
        self.line_starts = []
        off = 0
        for _, code, _ in self.lines:
            self.line_starts.append(off)
            parts.append(code)
            off += len(code) + 1
        self.code = "\n".join(parts)

    def line_of(self, offset):
        return bisect_right(self.line_starts, offset)

    def raw_line(self, lineno):
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1][2]
        return ""

    def allows(self, lineno, rule):
        """True when the raw line (or the one above) carries a
        `lint:allow` tag naming @p rule by id or slug."""
        tags = set()
        for no in (lineno, lineno - 1):
            tags.update(t.lower() for t in ALLOW_RE.findall(self.raw_line(no)))
        return rule.lower() in tags or RULE_NAMES[rule] in tags


def match_delim(code, open_pos, open_ch, close_ch):
    """Offset just past the delimiter matching code[open_pos], or -1."""
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _raw_call_args(raw_text, callee):
    """Top-level argument strings of `callee(...)` in raw (unstripped)
    source text: quote-aware paren matching, then a quote-aware
    top-level comma split. Empty list when parsing fails."""
    at = raw_text.find(callee + "(")
    if at < 0:
        at2 = re.search(re.escape(callee) + r"\s*\(", raw_text)
        if not at2:
            return []
        open_pos = raw_text.find("(", at2.start())
    else:
        open_pos = at + len(callee)
    depth = 0
    in_str = False
    args, cur = [], []
    i = open_pos
    while i < len(raw_text):
        c = raw_text[i]
        if in_str:
            if c == "\\":
                i += 2
                cur.append(raw_text[i - 2:i])
                continue
            cur.append(c)
            if c == '"':
                in_str = False
            i += 1
            continue
        if c == '"':
            in_str = True
            cur.append(c)
        elif c == "(":
            depth += 1
            if depth > 1:
                cur.append(c)
        elif c == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(cur).strip())
                return [a for a in args if a]
            cur.append(c)
        elif c == "," and depth == 1:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
        i += 1
    return []


def split_top_commas(s):
    """Split on commas not nested in (), [], <>, {}."""
    parts, depth_round, depth_square, depth_brace, depth_angle = [], 0, 0, 0, 0
    cur = []
    for c in s:
        if c == "(":
            depth_round += 1
        elif c == ")":
            depth_round -= 1
        elif c == "[":
            depth_square += 1
        elif c == "]":
            depth_square -= 1
        elif c == "{":
            depth_brace += 1
        elif c == "}":
            depth_brace -= 1
        elif c == "<":
            depth_angle += 1
        elif c == ">" and depth_angle > 0:
            depth_angle -= 1
        elif c == "," and not (depth_round or depth_square or
                               depth_brace or depth_angle):
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(c)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# Line rules R1-R6: patterns matched over one file's stripped lines.
# Each check yields (rel, line, rule, message).
# ---------------------------------------------------------------------------

# R1: forbidden calls/types, with the reason shown in the diagnostic.
R1_PATTERNS = [
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "wall-clock time in the model breaks run-to-run determinism"),
    (re.compile(r"\bgettimeofday\s*\("),
     "wall-clock time in the model breaks run-to-run determinism"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "wall-clock time in the model breaks run-to-run determinism"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
     "CPU-clock sampling in the model breaks run-to-run determinism"),
    (re.compile(r"std::random_device"),
     "non-deterministic seeding; take an explicit seed and use "
     "sim/rng.hh"),
    (re.compile(r"(?<![\w:])s?rand\s*\(|std::s?rand\b"),
     "C PRNG is unseeded global state; use sim/rng.hh"),
]

R1_EXEMPT = {Path("sim") / "rng.hh"}

# R2: names of unordered containers declared in the file (or its
# companion header) are tracked, then any range-for / begin() walk
# over them is flagged.
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*"
    r"(?:&\s*)?(\w+)\s*[;={(]")
RANGE_FOR = re.compile(r"\bfor\s*\(.*?:\s*(?:\*\s*)?([A-Za-z_]\w*)\s*\)")
# begin() starts a walk; a bare end() is almost always a find()
# comparison, which is order-independent and fine.
BEGIN_WALK = re.compile(r"\b([A-Za-z_]\w*)\s*[.]\s*c?begin\s*\(")

R3_DEFAULT_CAPTURE = re.compile(r"\[\s*[=&]\s*[,\]]")

USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
INCLUDE_QUOTED = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
GUARD_IFNDEF = re.compile(r"^\s*#\s*ifndef\s+(\w+)")

# R6: threading primitives, confined to the engine-group coordinator.
R6_PATTERNS = [
    (re.compile(r"#\s*include\s*<(thread|mutex|condition_variable|"
                r"atomic|future|shared_mutex|stop_token|barrier|latch|"
                r"semaphore)>"),
     "threading header"),
    (re.compile(r"std::(thread|jthread|mutex|recursive_mutex|"
                r"shared_mutex|condition_variable|atomic|async|future|"
                r"promise|barrier|latch|counting_semaphore|"
                r"this_thread)\b"),
     "threading primitive"),
    (re.compile(r"\bthread_local\b"), "thread-local storage"),
]

R6_EXEMPT = {Path("sim") / "engine_group.hh",
             Path("sim") / "engine_group.cc"}

# R5: allowed include targets per src/ subdirectory (the layering DAG).
# A directory always may include itself; anything else must be listed.
LAYER_DEPS = {
    "sim": set(),
    "overhead": set(),
    "bus": {"sim"},
    "ecc": {"sim"},
    "nand": {"sim"},
    "reliability": {"sim"},
    "workload": {"sim"},
    "ftl": {"nand", "sim"},
    "fault": {"bus", "ecc", "ftl", "nand", "sim"},
    "noc": {"bus", "fault", "sim"},
    "controller": {"bus", "ecc", "fault", "nand", "sim"},
    "hil": {"sim", "workload"},
    "core": {"bus", "controller", "fault", "ftl", "nand", "noc",
             "reliability", "sim", "workload"},
}


def expected_guard(rel):
    """src/ftl/mapping.hh -> DSSD_FTL_MAPPING_HH"""
    parts = list(rel.parts)
    stem = rel.stem
    return "DSSD_" + "_".join(p.upper() for p in parts[:-1] + [stem]) \
        + "_HH"


def check_lines(path, rel, src):
    """R1-R6 over the file at @p path (@p rel under the root)."""
    lines = src.lines

    # R1 ------------------------------------------------------------
    if rel not in R1_EXEMPT:
        for no, code, _ in lines:
            for pat, why in R1_PATTERNS:
                if pat.search(code):
                    yield rel, no, "R1", f"{pat.pattern!r}: {why}"

    # R2 ------------------------------------------------------------
    unordered_names = set()
    for _, code, _ in lines:
        for m in UNORDERED_DECL.finditer(code):
            unordered_names.add(m.group(1))
    # Companion header declares the members the .cc iterates.
    if path.suffix == ".cc":
        header = path.with_suffix(".hh")
        if header.exists():
            for _, code, _ in logical_lines(
                    header.read_text(encoding="utf-8")):
                for m in UNORDERED_DECL.finditer(code):
                    unordered_names.add(m.group(1))
    for no, code, _ in lines:
        hits = set(RANGE_FOR.findall(code)) | set(BEGIN_WALK.findall(code))
        for name in sorted(hits & unordered_names):
            yield (rel, no, "R2",
                   f"iteration over unordered container '{name}' has "
                   f"hash-seed-dependent order; use a sorted accessor "
                   f"or append '// lint:allow {RULE_NAMES['R2']}'")

    # R3 ------------------------------------------------------------
    for no, code, _ in lines:
        if R3_DEFAULT_CAPTURE.search(code):
            yield (rel, no, "R3",
                   "default lambda capture hides the capture set; "
                   "spell captures out so the event callback's "
                   "inline-storage footprint is visible")
    if rel == Path("sim") / "engine.hh":
        lost = []
        if "kInlineCallbackBytes = 128" not in src.text:
            lost.append("kInlineCallbackBytes = 128")
        if not re.search(r"static_assert\s*\(\s*sizeof\s*\(\s*Event\s*\)"
                         r"\s*==\s*160", src.text):
            lost.append("static_assert(sizeof(Event) == 160)")
        if lost:
            yield (rel, 1, "R3",
                   f"engine.hh no longer pins {' or '.join(lost)}; the "
                   f"pooled event-node budget contract moved or changed")

    # R4 ------------------------------------------------------------
    if path.suffix == ".hh":
        guard = None
        for no, code, _ in lines:
            m = GUARD_IFNDEF.search(code)
            if m:
                guard = (no, m.group(1))
                break
        want = expected_guard(rel)
        if guard is None:
            yield rel, 1, "R4", f"missing include guard (expected {want})"
        elif guard[1] != want:
            yield (rel, guard[0], "R4",
                   f"include guard {guard[1]} should spell the header "
                   f"path: {want}")
        for no, code, _ in lines:
            if USING_NAMESPACE.search(code):
                yield (rel, no, "R4",
                       "'using namespace' in a header pollutes every "
                       "includer")
    for no, _, raw in lines:
        m = INCLUDE_QUOTED.match(raw)
        if m and "/" not in m.group(1):
            yield (rel, no, "R4",
                   f"project include \"{m.group(1)}\" must use its "
                   f"subdir-qualified path (e.g. \"sim/engine.hh\")")

    # R5 ------------------------------------------------------------
    layer = rel.parts[0] if len(rel.parts) > 1 else None
    if layer in LAYER_DEPS:
        edges = LAYER_DEPS[layer] | {layer}
        for no, _, raw in lines:
            m = INCLUDE_QUOTED.match(raw)
            if not m or "/" not in m.group(1):
                continue
            target = m.group(1).split("/")[0]
            if target in LAYER_DEPS and target not in edges:
                yield (rel, no, "R5",
                       f"layering violation: {layer}/ may not include "
                       f"\"{m.group(1)}\" ({layer} -> {target} is not "
                       f"an edge of the dependency DAG; allowed: "
                       f"{', '.join(sorted(LAYER_DEPS[layer])) or 'none'})")
    elif layer is not None:
        yield (rel, 1, "R5",
               f"directory src/{layer}/ is not in the layering DAG; "
               f"add it to LAYER_DEPS in dssd_lint.py")

    # R6 ------------------------------------------------------------
    if rel not in R6_EXEMPT:
        for no, code, _ in lines:
            for pat, what in R6_PATTERNS:
                m = pat.search(code)
                if m:
                    yield (rel, no, "R6",
                           f"{what} '{m.group(0)}' outside "
                           f"sim/engine_group.*: model code is "
                           f"thread-confined; cross-thread work must "
                           f"flow through the EngineGroup's "
                           f"deterministic merge, never an ad-hoc "
                           f"thread")


# ---------------------------------------------------------------------------
# R7: the policy registry, cross-checked with its test.
# ---------------------------------------------------------------------------

POLICY_CC = Path("ftl") / "policy.cc"
POLICY_CLASS_RE = re.compile(
    r"class\s+(\w+)\s*(?:final\s*)?:\s*public\s+"
    r"(VictimPolicy|AllocPolicy)\b")
POLICY_NAME_RE = re.compile(r"\{\s*\"([a-z0-9_+-]+)\"\s*,")
MAKE_UNIQUE_RE = re.compile(r"std::make_unique<\s*(\w+)\s*>")


def check_policy_registry(root):
    """R7: concrete policies registered in the factory and named in
    the test, all reported on line 1 of ftl/policy.cc."""
    text = (root / POLICY_CC).read_text(encoding="utf-8")
    problems = []

    classes = {m.group(1) for m in POLICY_CLASS_RE.finditer(text)}
    built = set(MAKE_UNIQUE_RE.findall(text))
    for cls in sorted(classes - built):
        problems.append(
            f"concrete policy class '{cls}' is never constructed by the "
            f"factory registry in policy.cc; register it (and name it in "
            f"tests/ftl/policy_test.cc)")

    # Registered names: the string literals of the registry entries.
    names = set()
    for block in re.findall(
            r"(?:VictimEntry|AllocEntry)\s+\w+Registry\[\]\s*=\s*\{(.*?)\n\};",
            text, re.S):
        names.update(POLICY_NAME_RE.findall(block))

    test = root.parent / "tests" / "ftl" / "policy_test.cc"
    if not test.exists():
        problems.append(
            "tests/ftl/policy_test.cc is missing; the policy registry "
            "has no fixture coverage")
    else:
        test_text = test.read_text(encoding="utf-8")
        for name in sorted(names):
            if f'"{name}"' not in test_text:
                problems.append(
                    f"registered policy '{name}' is never named in "
                    f"tests/ftl/policy_test.cc; add a fixture that "
                    f"exercises it")
    if problems:
        yield POLICY_CC, 1, "R7", "; ".join(problems)


# ---------------------------------------------------------------------------
# Facts: what one file declares and calls, for the whole-tree rules.
#
# One dict per file:
#   file            path under the root
#   classes         [{name, line, stat_fields: [{name, type, line}],
#                     pool_fields: [...], unordered_fields: [...],
#                     registered: [member-name, ...] | None}]
#                   (registered is non-None iff a registerStats body
#                    for the class was seen in this file)
#   lambdas         [{line, captures: [(name, init_expr)],
#                     sink: call-name|None}]
#   pooled_names    [name, ...]  (locals/params of pooled type)
#   spans           [{kind: 'begin'|'end', cat, name, line}]
#   narrow_casts    [{line, to, expr}]
#   narrow_decls    [{line, to, name, expr}]
#   tick_subs       [{line, a, b, guarded}]
#   unordered_names [{name, via}]   (alias-declared vars, members)
#   iterations      [{name, line}]  (range-for / .begin() walks)
#   shard_engine_uses [{line}]
#   global_pooled   [{name, line}]
#   using_libc      [{name, line}]  (using std::rand / using namespace std)
#   libc_calls      [{name, line}]  (bare rand()/time()/srand() calls)
# ---------------------------------------------------------------------------

POOLED_TYPES = ("PoolPtr", "BlockPool", "PoolAllocator")
STAT_TYPES = ("Counter", "SampleStat", "RateSeries")
SINK_CALLS = ("postToShard", "postToHost", "schedule", "scheduleAbs")
CROSSING_SINKS = ("postToShard", "postToHost")
TICK_CALLS = ("now", "nextEventTick", "firstGcStart", "lastGcEnd",
              "lookahead", "gcFirstStart", "gcLastEnd")

# Integer destinations that can hold a full Tick without truncation or
# sign flip. Everything else integral is a narrowing target.
TICK_SAFE_TARGETS = {
    "Tick", "dssd::Tick", "std::uint64_t", "uint64_t",
    "unsigned long long", "unsigned long long int", "std::size_t",
    "size_t", "std::uintmax_t", "uintmax_t", "unsigned long",
    "double", "long double", "float",  # float loses precision, not range
}
NARROW_TARGET = re.compile(
    r"^(?:const\s+)?(?:signed\s+)?("
    r"std::u?int(?:8|16|32)_t|u?int(?:8|16|32)_t|"
    r"std::int64_t|int64_t|long long|long|int|short|char|unsigned|"
    r"unsigned\s+(?:int|short|char|long)"
    r")$")


def is_narrow_target(t):
    t = re.sub(r"\s+", " ", t.strip())
    t = t.replace("const ", "")
    if t in TICK_SAFE_TARGETS:
        return False
    return bool(NARROW_TARGET.match(t))


ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+(.{1,120}?)\s+(\w+)\s*;")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?"
                      r"(?::[^;{]*)?{")
FIELD_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:mutable\s+)?(?:const\s+)?"
    r"((?:\w+::)*\w+(?:\s*<[^;()]*?>)?)\s+(_?\w+)\s*(?:[;{]|=[^=])")
REGSTATS_CC_RE = re.compile(r"\b(\w+)::registerStats\s*\(")
MEMBER_MENTION_RE = re.compile(r"[&.]\s*(_?\w+)\b|\b(_\w+)\b")
LAMBDA_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^)]*\))?\s*"
                       r"(?:mutable\s*)?(?:noexcept\s*)?(?:->[^{]{0,60})?\{")
# Member-call prefix required so declarations in headers (or fixture
# stubs) don't register as span sites.
SPAN_RE = re.compile(r"(?:\.|->)\s*async(Begin|End)\s*\(")
CAST_RE = re.compile(r"\bstatic_cast\s*<\s*([^<>]+?)\s*>\s*\(")
TICK_DECL_RE = re.compile(r"\bTick\s+(\w+)\s*(?![\w(])")
TICK_SUB_RE = re.compile(r"\b(\w+)\s*-\s*(\w+)\b")
NARROW_DECL_RE = re.compile(
    r"\b((?:unsigned\s+)?(?:long\s+long|long|int|short|char)|"
    r"(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t|Tick|"
    r"double|float)\s+(\w+)\s*=\s*([^;=][^;]*);")
SHARD_ENGINE_RE = re.compile(r"(?:\.|->)\s*shardEngine\s*\(")
USING_LIBC_RE = re.compile(
    r"\busing\s+(?:std::(rand|srand|time|clock)|(namespace\s+std))\s*;")
LIBC_CALL_RE = re.compile(r"(?<![\w:.])(rand|srand|time|clock)\s*\(")
POOLED_LOCAL_RE = re.compile(
    r"\b(?:PoolPtr|PoolAllocator\s*<[^>]*>)\s+(\w+)\b|"
    r"\b(?:auto|const auto)\s*&?\s+(\w+)\s*=\s*"
    r"[^;]*(?:makePooled|PoolPtr::make)\b")
# No '(' terminator: `PoolPtr makePooled();` is a function
# declaration, not pooled state.
GLOBAL_POOLED_RE = re.compile(
    r"^(?:static\s+)?(?:PoolPtr|BlockPool)\s+(\w+)\s*[;={]")

UNORDERED_IN_TYPE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)")


def resolve_alias(name, aliases, depth=0):
    """Chase alias chains: the final underlying type string."""
    seen = name
    while depth < 8 and seen in aliases:
        seen = aliases[seen].strip()
        # "std::unordered_map<K, V>" or another alias name
        head = re.match(r"(\w+)\s*$", seen)
        if head and head.group(1) in aliases and head.group(1) != seen:
            seen = head.group(1)
        depth += 1
    return seen


def _parse_captures(capture_text):
    """[(name, init_expr)] for the named captures of a lambda's capture
    list (init_expr is "" unless init-captured); a default capture
    (= or &) names nothing."""
    captures = []
    for item in split_top_commas(capture_text):
        if item in ("=", "&"):
            continue
        if item == "this" or item == "*this":
            captures.append(("this", ""))
            continue
        m = re.match(r"&?\s*(\w+)\s*(?:=\s*(.*))?$", item, re.S)
        if m:
            captures.append((m.group(1), m.group(2) or ""))
    return captures


def _mentioned(body):
    """Member names a registerStats body refers to."""
    return sorted({a or b for a, b in MEMBER_MENTION_RE.findall(body)})


def _class_spans(code):
    """[(name, body_start, body_end)] for every class/struct in code."""
    spans = []
    for m in CLASS_RE.finditer(code):
        open_pos = code.find("{", m.end() - 1)
        if open_pos < 0:
            continue
        end = match_delim(code, open_pos, "{", "}")
        if end < 0:
            continue
        spans.append((m.group(1), open_pos + 1, end - 1))
    return spans


def _mask_nested(code, outer_start, outer_end, spans):
    """Body text of [outer_start, outer_end) with nested class bodies
    blanked, so field scans attribute members to the right class."""
    body = list(code[outer_start:outer_end])
    for _, s, e in spans:
        if s > outer_start and e <= outer_end and \
                not (s == outer_start and e == outer_end):
            for i in range(s - outer_start, e - outer_start):
                if body[i] != "\n":
                    body[i] = " "
    return "".join(body)


def extract_facts(rel, src):
    """The facts of one file (@p rel under the root, text @p src)."""
    code = src.code
    f = {
        "file": rel, "classes": [], "lambdas": [], "pooled_names": [],
        "spans": [], "narrow_casts": [], "narrow_decls": [],
        "tick_subs": [], "unordered_names": [], "iterations": [],
        "shard_engine_uses": [], "global_pooled": [], "using_libc": [],
        "libc_calls": [],
    }

    aliases = {}
    for m in ALIAS_RE.finditer(code):
        aliases[m.group(1)] = m.group(2).strip()
    for m in TYPEDEF_RE.finditer(code):
        aliases[m.group(2)] = m.group(1).strip()

    # --- classes: stat/pool/unordered members + inline registerStats
    spans = _class_spans(code)
    for name, body_start, body_end in spans:
        masked = _mask_nested(code, body_start, body_end, spans)
        cls = {"name": name, "line": src.line_of(body_start),
               "stat_fields": [], "pool_fields": [],
               "unordered_fields": [], "registered": None}
        for fm in FIELD_RE.finditer(masked):
            ftype, fname = fm.group(1).strip(), fm.group(2)
            base = ftype.split("<")[0].strip()
            line = src.line_of(body_start + fm.start(1))
            entry = {"name": fname, "type": ftype, "line": line}
            base_last = base.split("::")[-1]
            if base_last in STAT_TYPES:
                cls["stat_fields"].append(entry)
            elif base_last in POOLED_TYPES:
                cls["pool_fields"].append(entry)
            resolved = resolve_alias(base, aliases)
            if UNORDERED_IN_TYPE.search(ftype) or \
                    UNORDERED_IN_TYPE.search(resolved):
                cls["unordered_fields"].append(entry)
        # inline registerStats body inside the class
        rm = re.search(r"\bregisterStats\s*\(", masked)
        if rm:
            open_pos = masked.find("{", rm.end())
            semi_pos = masked.find(";", rm.end())
            if open_pos >= 0 and (semi_pos < 0 or open_pos < semi_pos):
                end = match_delim(masked, open_pos, "{", "}")
                if end > 0:
                    cls["registered"] = _mentioned(masked[open_pos:end])
        f["classes"].append(cls)

    # --- out-of-line registerStats bodies (ClassName::registerStats)
    for m in REGSTATS_CC_RE.finditer(code):
        open_pos = code.find("{", m.end())
        if open_pos < 0:
            continue
        # Skip declarations (a ';' before the '{' means no body here).
        semi = code.find(";", m.end())
        if 0 <= semi < open_pos:
            continue
        end = match_delim(code, open_pos, "{", "}")
        if end < 0:
            continue
        f["classes"].append({
            "name": m.group(1), "line": src.line_of(m.start()),
            "stat_fields": [], "pool_fields": [], "unordered_fields": [],
            "registered": _mentioned(code[open_pos:end])})

    # --- pooled locals/params and file-scope pooled state
    for m in POOLED_LOCAL_RE.finditer(code):
        f["pooled_names"].append(m.group(1) or m.group(2))
    class_ranges = [(s, e) for _, s, e in spans]

    def inside_class(off):
        return any(s <= off < e for s, e in class_ranges)

    for lineno, line_code, _ in src.lines:
        gm = GLOBAL_POOLED_RE.match(line_code.strip())
        if gm:
            off = src.line_starts[lineno - 1]
            if not inside_class(off):
                # Function-local statics share the pattern; a leading
                # indent distinguishes file scope in this codebase.
                if line_code == line_code.lstrip():
                    f["global_pooled"].append(
                        {"name": gm.group(1), "line": lineno})

    # --- lambdas + their scheduling sink
    sink_spans = []
    for m in re.finditer(r"\b(" + "|".join(SINK_CALLS) + r")\s*\(", code):
        end = match_delim(code, m.end() - 1, "(", ")")
        if end > 0:
            sink_spans.append((m.start(), end, m.group(1)))
    for m in LAMBDA_RE.finditer(code):
        prev = code[:m.start()].rstrip()[-1:]
        if prev and prev not in "(,={;&|!<>+-*/%:?":
            continue  # array subscript or attribute, not a lambda
        sink = None
        best = None
        for s, e, name in sink_spans:
            if s <= m.start() < e:
                if best is None or s > best[0]:
                    best = (s, e, name)
        if best:
            sink = best[2]
        f["lambdas"].append({
            "line": src.line_of(m.start()),
            "captures": _parse_captures(m.group(1)), "sink": sink})

    # --- async span sites: parse the call's raw text (strings
    # intact) so multi-line calls and dynamic names resolve correctly.
    for m in SPAN_RE.finditer(code):
        end = match_delim(code, m.end() - 1, "(", ")")
        if end < 0:
            continue
        lineno = src.line_of(m.start())
        end_line = src.line_of(end - 1)
        raw_call = "\n".join(src.raw_line(n)
                             for n in range(lineno, end_line + 1))
        args = _raw_call_args(raw_call, "async" + m.group(1))
        # (pid, cat, name, id, when) — cat/name are args 1 and 2.

        def span_arg(i):
            if i >= len(args):
                return "<dyn>"
            lm = re.fullmatch(r'"((?:[^"\\]|\\.)*)"', args[i].strip())
            return lm.group(1) if lm else "<dyn>"
        f["spans"].append({"kind": m.group(1).lower(),
                           "cat": span_arg(1), "name": span_arg(2),
                           "line": lineno})

    # --- tick-typed names and unsafe narrowing
    tick_names = {m.group(1) for m in TICK_DECL_RE.finditer(code)}

    def is_tickish(expr):
        if re.search(r"\b(" + "|".join(TICK_CALLS) + r")\s*\(", expr):
            return True
        toks = set(re.findall(r"[A-Za-z_]\w*", expr))
        return bool(toks & tick_names)

    for m in CAST_RE.finditer(code):
        target = m.group(1)
        end = match_delim(code, m.end() - 1, "(", ")")
        if end < 0:
            continue
        inner = code[m.end():end - 1]
        if is_narrow_target(target) and is_tickish(inner):
            f["narrow_casts"].append({
                "line": src.line_of(m.start()),
                "to": re.sub(r"\s+", " ", target.strip()),
                "expr": re.sub(r"\s+", " ", inner.strip())[:60]})

    for m in NARROW_DECL_RE.finditer(code):
        target, name, expr = m.group(1), m.group(2), m.group(3)
        if is_narrow_target(target) and is_tickish(expr):
            f["narrow_decls"].append({
                "line": src.line_of(m.start()),
                "to": re.sub(r"\s+", " ", target.strip()),
                "name": name,
                "expr": re.sub(r"\s+", " ", expr.strip())[:60]})

    # --- tick subtractions, and whether the file orders the pair
    for m in TICK_SUB_RE.finditer(code):
        a, b = m.group(1), m.group(2)
        if a in tick_names and b in tick_names:
            guard = re.search(
                r"\b{a}\s*[<>]=?\s*{b}\b|\b{b}\s*[<>]=?\s*{a}\b|"
                r"\bmax\s*\(|\bmin\s*\(".format(a=re.escape(a),
                                                b=re.escape(b)), code)
            f["tick_subs"].append({
                "line": src.line_of(m.start()), "a": a, "b": b,
                "guarded": bool(guard)})

    # --- alias-declared unordered containers + iteration sites
    unordered_vars = {}
    for alias in aliases:
        resolved = resolve_alias(alias, aliases)
        if UNORDERED_IN_TYPE.search(resolved):
            for dm in re.finditer(
                    r"\b" + re.escape(alias) + r"\s*&?\s+(\w+)\s*[;={(]",
                    code):
                unordered_vars[dm.group(1)] = alias
    for cls in f["classes"]:
        for fld in cls["unordered_fields"]:
            unordered_vars.setdefault(fld["name"], cls["name"])
    for name, via in sorted(unordered_vars.items()):
        f["unordered_names"].append({"name": name, "via": via})
    for lineno, line_code, _ in src.lines:
        hits = set(RANGE_FOR.findall(line_code)) | \
            set(BEGIN_WALK.findall(line_code))
        for h in sorted(hits):
            f["iterations"].append({"name": h, "line": lineno})

    # --- shard-engine access sites
    for m in SHARD_ENGINE_RE.finditer(code):
        f["shard_engine_uses"].append({"line": src.line_of(m.start())})

    # --- libc randomness/time pulled in unqualified by a using
    for m in USING_LIBC_RE.finditer(code):
        f["using_libc"].append({
            "name": m.group(1) or "namespace std",
            "line": src.line_of(m.start())})
    if f["using_libc"]:
        for m in LIBC_CALL_RE.finditer(code):
            f["libc_calls"].append({"name": m.group(1),
                                    "line": src.line_of(m.start())})

    return f


# ---------------------------------------------------------------------------
# Whole-tree rules over the facts of every file. Each yields
# (rel, line, rule, message).
# ---------------------------------------------------------------------------


class Program:
    """The facts of every file, with the cross-file indexes the rules
    query."""

    def __init__(self, facts):
        self.files = facts

        # class name -> merged view {stat_fields, registered(set|None)}
        self.classes = {}
        for ff in facts:
            for cls in ff["classes"]:
                cur = self.classes.setdefault(cls["name"], {
                    "stat_fields": {}, "registered": None})
                for fld in cls["stat_fields"]:
                    cur["stat_fields"].setdefault(
                        fld["name"], (ff["file"], fld["line"], fld["type"]))
                if cls["registered"] is not None:
                    if cur["registered"] is None:
                        cur["registered"] = set()
                    cur["registered"].update(cls["registered"])

        self.pooled_names = set()
        for ff in facts:
            self.pooled_names.update(ff["pooled_names"])
            for cls in ff["classes"]:
                for fld in cls["pool_fields"]:
                    self.pooled_names.add(fld["name"])

        # container name -> (declaring alias or class, declaring file)
        self.unordered = {}
        for ff in facts:
            for un in ff["unordered_names"]:
                self.unordered[un["name"]] = (un["via"], ff["file"])
        for ff in facts:
            for cls in ff["classes"]:
                for fld in cls["unordered_fields"]:
                    self.unordered[fld["name"]] = (cls["name"], ff["file"])


def check_laundered_libc(prog):
    """R1: libc randomness/time reached through a `using`."""
    for ff in prog.files:
        if ff["file"] in R1_EXEMPT:
            continue
        for u in ff["using_libc"]:
            yield (ff["file"], u["line"], "R1",
                   f"'using {u['name']}' pulls unqualified libc "
                   f"randomness/time into scope, out of reach of the "
                   f"qualified-name patterns")
        for c in ff["libc_calls"]:
            yield (ff["file"], c["line"], "R1",
                   f"unqualified {c['name']}() reached through a "
                   f"using-declaration: wall clocks and the C PRNG break "
                   f"run-to-run determinism; use sim/rng.hh")


def check_unordered_walks(prog):
    """R2: walks over containers whose unordered type is reached
    through an alias or a class member declared anywhere."""
    for ff in prog.files:
        for it in ff["iterations"]:
            if it["name"] in prog.unordered:
                via, decl_file = prog.unordered[it["name"]]
                yield (ff["file"], it["line"], "R2",
                       f"iteration over '{it['name']}' whose resolved type "
                       f"(via {via}, declared in {decl_file}) is an "
                       f"unordered container: traversal order depends on "
                       f"hash seed and rehash history. Use a sorted "
                       f"accessor or an ordered container")


# Files allowed to touch shard engines directly: the array front-end
# that owns them and the sim layer that implements the group.
SHARD_ENGINE_OWNERS = ("core/array.cc", "core/array.hh", "sim/")


def check_shard_confinement(prog):
    """R8: pooled handles stay on their shard."""
    for ff in prog.files:
        for lam in ff["lambdas"]:
            if lam["sink"] not in CROSSING_SINKS:
                continue
            for name, init_expr in lam["captures"]:
                pooled = name in prog.pooled_names or any(
                    p in init_expr for p in ("makePooled", "PoolPtr"))
                if pooled:
                    yield (ff["file"], lam["line"], "R8",
                           f"lambda passed to {lam['sink']}() captures "
                           f"pooled handle '{name}': PoolPtr refcounts are "
                           f"non-atomic and shard-confined; crossing the "
                           f"host<->shard message path hands the refcount "
                           f"to another thread. Copy the payload out, or "
                           f"allocate it from the receiving side's pool")
        for g in ff["global_pooled"]:
            if ff["file"] == Path("sim") / "pool.hh":
                continue
            yield (ff["file"], g["line"], "R8",
                   f"file-scope pooled object '{g['name']}': pools are "
                   f"owned by one shard's component tree; global pooled "
                   f"state is reachable from every shard thread")
        if ff["file"].as_posix().startswith(SHARD_ENGINE_OWNERS):
            continue
        for use in ff["shard_engine_uses"]:
            yield (ff["file"], use["line"], "R8",
                   "direct shardEngine() access outside the array "
                   "front-end (core/array.*) and sim/: model code must "
                   "reach shard state through the EngineGroup message "
                   "path, never by scheduling on another shard's engine")


def check_stat_registration(prog):
    """R9: every stat member registered, every async span paired."""
    for cname, cls in sorted(prog.classes.items()):
        for fname, (file, line, ftype) in sorted(cls["stat_fields"].items()):
            if cls["registered"] is None:
                yield (file, line, "R9",
                       f"{cname} declares {ftype} '{fname}' but has no "
                       f"registerStats() anywhere in the program; the "
                       f"stat can never reach a --stats dump")
            elif fname not in cls["registered"]:
                yield (file, line, "R9",
                       f"{ftype} member '{fname}' of {cname} is never "
                       f"referenced by {cname}::registerStats(); it will "
                       f"be invisible in every --stats dump")

    begins, ends = {}, {}
    for ff in prog.files:
        for sp in ff["spans"]:
            d = begins if sp["kind"] == "begin" else ends
            d.setdefault((sp["cat"], sp["name"]), (ff["file"], sp["line"]))

    def unmatched(sites, partners):
        for key, (file, line) in sorted(sites.items()):
            if key not in partners and ("<dyn>", "<dyn>") not in partners \
                    and (key[0], "<dyn>") not in partners:
                yield key, file, line

    for (cat, name), file, line in unmatched(begins, ends):
        yield (file, line, "R9",
               f"async span ({cat}, {name}) is opened by asyncBegin but "
               f"never closed by any asyncEnd in the program; the span "
               f"will dangle in every trace")
    for (cat, name), file, line in unmatched(ends, begins):
        yield (file, line, "R9",
               f"async span ({cat}, {name}) is closed by asyncEnd but "
               f"never opened by any asyncBegin in the program")


def check_tick_safety(prog):
    """R10: no narrowed ticks, no unguarded tick subtraction."""
    for ff in prog.files:
        for c in ff["narrow_casts"]:
            yield (ff["file"], c["line"], "R10",
                   f"narrowing cast of a Tick expression to '{c['to']}' "
                   f"({c['expr']}): Tick is u64 nanoseconds; anything "
                   f"smaller or signed truncates after ~4.3 s of simulated "
                   f"time. Keep ticks in Tick and convert at the edge "
                   f"with ticksToUs()/ticksToMs()")
        for d in ff["narrow_decls"]:
            yield (ff["file"], d["line"], "R10",
                   f"'{d['to']} {d['name']} = {d['expr']}' seeds a "
                   f"narrower integer from a Tick expression; declare it "
                   f"Tick (or convert explicitly at a reporting edge)")
        for s in ff["tick_subs"]:
            if not s["guarded"]:
                yield (ff["file"], s["line"], "R10",
                       f"tick subtraction '{s['a']} - {s['b']}' with no "
                       f"visible ordering guard in this file: Tick is "
                       f"unsigned, so a reversed pair wraps to ~1.8e19")


TREE_CHECKS = (check_laundered_libc, check_unordered_walks,
               check_shard_confinement, check_stat_registration,
               check_tick_safety)

# ---------------------------------------------------------------------------
# Running the rules over a tree, and the fixture self-test
# ---------------------------------------------------------------------------


def sources(root):
    return sorted(root.rglob("*.hh")) + sorted(root.rglob("*.cc"))


def lint(root, files):
    """{(rel, line, rule): message} for @p files, which lie under
    @p root; suppressed findings are dropped, and the first message
    reported for a (file, line, rule) is kept."""
    texts = {f.relative_to(root): SourceText(f.read_text(encoding="utf-8"))
             for f in files}
    prog = Program([extract_facts(rel, src) for rel, src in texts.items()])
    checks = [check_lines(root / rel, rel, src) for rel, src in texts.items()]
    if POLICY_CC in texts:
        checks.append(check_policy_registry(root))
    checks.extend(check(prog) for check in TREE_CHECKS)
    found = {}
    for check in checks:
        for rel, line, rule, msg in check:
            key = (rel, line, rule)
            if key not in found and not texts[rel].allows(line, rule):
                found[key] = msg
    return found


def finding_order(key):
    rel, line, rule = key
    return rel.as_posix(), line, int(rule[1:])


def self_test(fixture_dir):
    """Lint every fixture under @p fixture_dir and compare its findings
    with its `// trip:R<N>` annotations; 0 when all match."""
    trees = sorted(d.parent for d in fixture_dir.rglob("src") if d.is_dir())
    units = [(t / "src", sources(t / "src"), t) for t in trees]
    units += [(fixture_dir, [f], f) for f in sources(fixture_dir)
              if not any(t in f.parents for t in trees)]
    if not units:
        print(f"dssd_lint: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    failures = 0
    for root, files, unit in sorted(units, key=lambda u: u[2]):
        expected = set()
        for f in files:
            text = f.read_text(encoding="utf-8")
            for no, raw in enumerate(text.splitlines(), 1):
                for m in TRIP_RE.finditer(raw):
                    expected.add((f.relative_to(root), no, m.group(1)))
        found = lint(root, files)
        missing = expected - found.keys()
        surplus = found.keys() - expected
        name = unit.relative_to(fixture_dir).as_posix()
        status = "FAIL" if missing or surplus else "ok"
        print(f"  {status:4s} {name}: expected {len(expected)} "
              f"finding(s), got {len(found)}")
        for rel, line, rule in sorted(missing, key=finding_order):
            print(f"       missing: {rel}:{line} [{rule}] "
                  f"(annotated but did not fire)")
        for key in sorted(surplus, key=finding_order):
            rel, line, rule = key
            print(f"       surplus: {rel}:{line} [{rule}] {found[key]}")
        failures += len(missing) + len(surplus)
    if failures:
        print(f"dssd_lint --self-test: {failures} mismatch(es)")
        return 1
    print(f"dssd_lint --self-test: {len(units)} fixture(s) ok")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="dssd_lint",
        description="Static checker for dssd sources (rules R1-R10).")
    ap.add_argument("root", nargs="?", default="src",
                    help="source tree to lint (default: src)")
    ap.add_argument("--self-test", metavar="DIR",
                    help="lint the fixtures under DIR and check their "
                         "// trip:R<N> annotations")
    opts = ap.parse_args(argv[1:])
    if opts.self_test:
        return self_test(Path(opts.self_test))

    root = Path(opts.root)
    if not root.is_dir():
        print(f"dssd_lint: no such directory: {root}", file=sys.stderr)
        return 2
    files = sources(root)
    if not files:
        print(f"dssd_lint: no sources under {root}", file=sys.stderr)
        return 2
    found = lint(root, files)
    for key in sorted(found, key=finding_order):
        rel, line, rule = key
        print(f"{root / rel}:{line}: [{rule}] {found[key]}")
    print(f"dssd_lint: {len(files)} files, {len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
