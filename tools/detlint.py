#!/usr/bin/env python3
"""detlint: determinism & zero-alloc lint for the aspen codebase.

The repo's output contract is byte-identical runs for every shard count and
seed (see DESIGN.md "Static guarantees"). The runtime gates (digest diffs,
allocation audits) catch violations only on the hardware and schedule they
run on; detlint bans the *sources* of nondeterminism and steady-state heap
traffic statically:

  DL001  unordered container declared without an order-insensitivity
         justification.  Hash-bucket iteration order is implementation-
         defined; any walk of an unordered container that reaches output is
         a latent determinism bug.  Suppress with
         `// detlint: order-insensitive(<why bucket order cannot leak>)`
         on the declaration line or one of the 3 lines above it.
  DL002  range-for iteration over a variable declared (in the same file) as
         an unordered container.  Same suppression.
  DL003  nondeterministic source: rand()/srand(), std::random_device,
         time(), clock(), gettimeofday(), std::chrono system/steady/
         high-resolution clocks.  Simulation code draws from seeded
         common::Rng streams only; wall-clock timing belongs in bench
         mains, which are not linted.
  DL004  pointer-keyed ordered container (std::map<T*, ...>, std::set<T*>).
         Pointer order is allocation order — nondeterministic across runs.
  DL005  heap-allocating call (new, malloc/calloc/realloc/strdup,
         make_unique, make_shared) inside a
         `// detlint: steady-state begin` ... `// detlint: steady-state end`
         region.  These regions are the per-cycle hot paths whose zero-alloc
         property the benches' allocation audits enforce at runtime.
  DL006  common::SequentialPhaseScope constructed inside a shard-path
         function body (OnSampleShard / OnDeliverShard / ComputeShard /
         BuildProducerCache / StateAtShard / WorkerLoop). The scope asserts
         the sequential-phase capability; forging it on a shard hook, which
         runs concurrently with the other shards' passes, would defeat the
         clang -Wthread-safety phase discipline.

Usage:
  tools/detlint.py [paths...]          lint (default: src)
  tools/detlint.py --self-test         run the violation-fixture self-test
  tools/detlint.py --clang-query=auto  additionally run AST-accurate DL003
                                       matching via clang-query when a
                                       compile database + binary exist
                                       (never required; regex rules gate)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

SUPPRESS_RE = re.compile(r"//\s*detlint:\s*order-insensitive\([^)]*\)")
REGION_BEGIN_RE = re.compile(r"//\s*detlint:\s*steady-state\s+begin\b")
REGION_END_RE = re.compile(r"//\s*detlint:\s*steady-state\s+end\b")

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_VAR_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*(\w+)\s*[;={]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:()]*:\s*([^)]+)\)")

NONDET_RES = [
    (re.compile(r"(?<![\w.])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w.])srand\s*\("), "srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:])time\s*\("), "time()"),
    (re.compile(r"(?<![\w.:])clock\s*\("), "clock()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bstd::chrono::(system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono clock"),
]

PTR_KEYED_RE = re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+\s*\*")

ALLOC_RES = [
    (re.compile(r"(?<!\w)new\b(?!\s*\()"), "new"),   # `new T`, not `new (place)`
    (re.compile(r"(?<!\w)new\s*\("), "placement/plain new"),
    (re.compile(r"(?<![\w.])(?:malloc|calloc|realloc|strdup)\s*\("), "malloc family"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
]

SHARD_FN_RE = re.compile(
    r"\b(?:OnSampleShard|OnDeliverShard|ComputeShard|"
    r"BuildProducerCache|StateAtShard|WorkerLoop)\s*\("
)
PHASE_SCOPE_RE = re.compile(r"\bSequentialPhaseScope\b")

CXX_EXTS = {".cc", ".cpp", ".cxx", ".h", ".hpp", ".hh"}


class Finding:
    def __init__(self, rule, path, line, msg):
        self.rule = rule
        self.path = path
        self.line = line
        self.msg = msg

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.msg}"


def strip_code_line(line):
    """Removes // comments and the contents of string/char literals so token
    scans don't fire on prose. Block comments are handled by the caller."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def preprocess(lines):
    """Returns (code_lines, raw_lines) with comments/strings stripped from
    code_lines; raw_lines keep directives visible."""
    code = []
    in_block = False
    for raw in lines:
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                code.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # strip /* ... */ possibly repeated
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        code.append(strip_code_line(line))
    return code


def lint_file(path):
    findings = []
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        raise SystemExit(f"detlint: cannot read {path}: {e}")
    code_lines = preprocess(raw_lines)

    def suppressed(idx):
        for back in range(0, 4):
            j = idx - back
            if j < 0:
                break
            if SUPPRESS_RE.search(raw_lines[j]):
                return True
        return False

    # Pass 1: collect unordered-container variable names (for DL002) and
    # steady-state regions (for DL005).
    unordered_vars = set()
    for code in code_lines:
        m = UNORDERED_VAR_RE.search(code)
        if m:
            unordered_vars.add(m.group(1))

    in_region = False
    region_at = {}
    for i, raw in enumerate(raw_lines):
        if REGION_BEGIN_RE.search(raw):
            in_region = True
        elif REGION_END_RE.search(raw):
            in_region = False
        region_at[i] = in_region
    if in_region:
        findings.append(Finding("DL000", path, len(raw_lines),
                                "unterminated `detlint: steady-state begin` region"))

    # Shard-path function spans via brace tracking.
    shard_spans = []
    depth = 0
    open_line = -1
    tracking = False
    for i, code in enumerate(code_lines):
        if not tracking and SHARD_FN_RE.search(code):
            tracking = True
            open_line = i
            depth = 0
        if tracking:
            depth += code.count("{") - code.count("}")
            if depth <= 0 and "{" in "".join(code_lines[open_line:i + 1]):
                if depth == 0 and code.count("{") + code.count("}") > 0:
                    shard_spans.append((open_line, i))
                    tracking = False
            # A declaration (prototype) with no body: stop at the semicolon.
            if depth == 0 and code.rstrip().endswith(";") and \
               "{" not in "".join(code_lines[open_line:i + 1]):
                tracking = False

    def in_shard_span(idx):
        return any(a <= idx <= b for a, b in shard_spans)

    for i, code in enumerate(code_lines):
        # DL001 — unordered declaration without justification.
        if UNORDERED_DECL_RE.search(code) and not suppressed(i):
            findings.append(Finding(
                "DL001", path, i + 1,
                "unordered container without `// detlint: "
                "order-insensitive(reason)` justification"))
        # DL002 — iteration over a known-unordered variable.
        m = RANGE_FOR_RE.search(code)
        if m:
            expr = m.group(1).strip()
            token = re.split(r"[^\w]", expr)[-1] or expr
            if token in unordered_vars and not suppressed(i):
                findings.append(Finding(
                    "DL002", path, i + 1,
                    f"range-for over unordered container `{token}` "
                    "(bucket order is not deterministic)"))
        # DL003 — nondeterministic sources.
        for rx, what in NONDET_RES:
            if rx.search(code):
                findings.append(Finding(
                    "DL003", path, i + 1,
                    f"nondeterministic source {what}; use seeded common::Rng "
                    "streams / the simulation clock"))
        # DL004 — pointer-keyed ordering.
        if PTR_KEYED_RE.search(code):
            findings.append(Finding(
                "DL004", path, i + 1,
                "pointer-keyed ordered container: pointer order is "
                "allocation order, not content order"))
        # DL005 — allocation inside a steady-state region.
        if region_at.get(i, False):
            for rx, what in ALLOC_RES:
                if rx.search(code):
                    findings.append(Finding(
                        "DL005", path, i + 1,
                        f"heap allocation ({what}) inside a "
                        "`detlint: steady-state` region"))
        # DL006 — forging the sequential capability on a shard path.
        if PHASE_SCOPE_RE.search(code) and in_shard_span(i):
            findings.append(Finding(
                "DL006", path, i + 1,
                "SequentialPhaseScope inside a shard-path function: shard "
                "hooks must never assert the sequential-phase capability"))
    return findings


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _, names in os.walk(p):
                for name in sorted(names):
                    if os.path.splitext(name)[1] in CXX_EXTS:
                        files.append(os.path.join(root, name))
        else:
            raise SystemExit(f"detlint: no such path: {p}")
    return sorted(files)


def find_clang_query():
    for name in ("clang-query", "clang-query-19", "clang-query-18",
                 "clang-query-17", "clang-query-16", "clang-query-15",
                 "clang-query-14"):
        path = shutil.which(name)
        if path:
            return path
    return None


CLANG_QUERY_MATCHERS = """\
set output diag
m callExpr(callee(functionDecl(hasAnyName("::rand","::srand","::time","::clock","::gettimeofday"))))
m declRefExpr(hasDeclaration(namedDecl(hasName("::std::random_device"))))
"""


def run_clang_query(files, build_dir):
    """AST-accurate DL003 pass. Best-effort: infra problems are reported but
    do not fail the lint (the regex pass above is the gate); *matches* do."""
    binary = find_clang_query()
    if binary is None:
        print("detlint: clang-query not found; skipping AST pass", file=sys.stderr)
        return []
    if not os.path.exists(os.path.join(build_dir, "compile_commands.json")):
        print(f"detlint: no compile_commands.json under {build_dir}; "
              "skipping AST pass", file=sys.stderr)
        return []
    sources = [f for f in files if os.path.splitext(f)[1] in {".cc", ".cpp", ".cxx"}]
    if not sources:
        return []
    matcher_file = os.path.join(build_dir, "detlint_matchers.cq")
    with open(matcher_file, "w") as f:
        f.write(CLANG_QUERY_MATCHERS)
    try:
        proc = subprocess.run(
            [binary, "-p", build_dir, "-f", matcher_file] + sources,
            capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"detlint: clang-query failed to run ({e}); skipping AST pass",
              file=sys.stderr)
        return []
    findings = []
    for line in proc.stdout.splitlines():
        m = re.match(r"(.+?):(\d+):\d+: note: \"root\" binds here", line)
        if m:
            findings.append(Finding("DL003", m.group(1), int(m.group(2)),
                                    "nondeterministic call (clang-query AST match)"))
    return findings


def self_test():
    here = os.path.dirname(os.path.abspath(__file__))
    fixture = os.path.join(here, "detlint_fixture")
    violations = os.path.join(fixture, "violations.cc")
    clean = os.path.join(fixture, "clean.cc")

    expected = []
    with open(violations) as f:
        for idx, line in enumerate(f, start=1):
            for m in re.finditer(r"expect:\s*(DL\d{3})(?:\s*@\s*([+-]\d+))?", line):
                expected.append((m.group(1), idx + int(m.group(2) or 0)))

    got = [(fi.rule, fi.line) for fi in lint_file(violations)]
    missing = [e for e in expected if e not in got]
    surplus = [g for g in got if g not in expected]
    ok = True
    if missing:
        ok = False
        for rule, line in missing:
            print(f"self-test: expected {rule} at violations.cc:{line}, not found")
    if surplus:
        ok = False
        for rule, line in surplus:
            print(f"self-test: unexpected {rule} at violations.cc:{line}")

    clean_findings = lint_file(clean)
    if clean_findings:
        ok = False
        for fi in clean_findings:
            print(f"self-test: clean fixture flagged: {fi}")

    if not ok:
        print("self-test: FAILED")
        return 1
    print(f"self-test: OK ({len(expected)} expected findings fired, "
          "clean fixture passes)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None)
    ap.add_argument("--self-test", action="store_true",
                    help="verify the lint against its violation fixtures")
    ap.add_argument("--clang-query", default="off",
                    choices=["off", "auto"],
                    help="additionally run the AST-accurate pass when "
                         "clang-query and a compile database are available")
    ap.add_argument("--build-dir", default="build",
                    help="directory holding compile_commands.json for "
                         "--clang-query (default: build)")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    paths = args.paths or ["src"]
    files = collect_files(paths)
    findings = []
    for f in files:
        findings.extend(lint_file(f))
    if args.clang_query == "auto":
        findings.extend(run_clang_query(files, args.build_dir))

    for fi in sorted(findings, key=lambda x: (x.path, x.line, x.rule)):
        print(fi)
    if findings:
        print(f"detlint: {len(findings)} finding(s) in {len(files)} file(s)")
        return 1
    print(f"detlint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
