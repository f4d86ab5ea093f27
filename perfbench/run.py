#!/usr/bin/env python3
"""Builds and runs one aspen benchmark workload; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repro F1|F2|F3
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The benchmark compiles the library from
src/ into $CARGO_TARGET_DIR/perfbench-<digest of the tree's path> (default
.bench_build/perfbench-<digest>), so trees never share a build, with
perfbench/CMakeLists.txt, runs the workload in its own process and prints,
as its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. A traced invocation runs the workload
twice, untraced and then traced, and checks that both give identical results,
bytes and messages.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-process time limit: an invocation must end within 180 s.
RUN_TIMEOUT_S = 170
# The phase probes must account for the cycle time within this share.
MAX_PHASE_GAP_PCT = 5.0
REPROS = {
    "F1": ["repro_f1"],
    "F2": ["repro_f2_shared", "repro_f2_per_source"],
    "F3": ["repro_f3_shared"],
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "join" / "executor.h").is_file():
        fail(f"no aspen sources under {ROOT / 'src'}; run from a source tree")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    # One build directory per tree, so a configuration cached in it always
    # belongs to this tree: two trees given the same absolute
    # CARGO_TARGET_DIR must not run each other's binary.
    tree = hashlib.sha1(str(HERE).encode()).hexdigest()[:12]
    build_dir = target / f"perfbench-{tree}"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir


def source_revision():
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha1:" + h.hexdigest()[:16]


def run_workload(build_dir, workload, seed, seconds, traced, setups=None,
                 echo=True):
    """Runs one workload process and returns its JSON; with `echo`, prints
    its report lines (one per failed operation or broken check)."""
    cmd = [str(build_dir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0"]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def fingerprint(report):
    return {"nproc": report["nproc"], "compiler": report["compiler"],
            "build_type": report["build_type"], "commit": source_revision()}


def measure(args, spec):
    build_dir = build()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {sorted(names)}")
    plain = run_workload(build_dir, args.workload, args.seed, args.seconds,
                         traced=False, setups=1 if args.trace else None)
    correct = plain["correct"]
    values = plain["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        traced = run_workload(build_dir, args.workload, args.seed,
                              args.seconds, traced=True, setups=1,
                              echo=False)
        if traced["digest"] != plain["digest"]:
            print("traced run differs from the untraced run in results, "
                  "bytes or messages")
            correct = False
        if (traced["failed"], traced["attempted"]) != (plain["failed"],
                                                        plain["attempted"]):
            print("traced run failed other operations than the untraced run")
            correct = False
        correct = correct and traced["correct"]
        gap = traced["metrics"]["sim.phase_gap_pct"]
        if abs(gap) > MAX_PHASE_GAP_PCT:
            print(f"phase times leave {gap:.2f}% of the cycle time unaccounted")
            correct = False
        values = dict(traced["metrics"])
        values["trace.overhead_pct"] = 100.0 * (
            traced["metrics"]["cycle_ms_p50"] /
            plain["metrics"]["cycle_ms_p50"] - 1.0)
    print("fingerprint: " + json.dumps(fingerprint(plain), sort_keys=True))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"the workload process reported no {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": plain["attempted"],
                      "failed": plain["failed"], "metrics": metrics}))


def repro(fault):
    build_dir = build()
    for workload in REPROS[fault]:
        report = run_workload(build_dir, workload, 0, 0, traced=False,
                              setups=1)
        print(f"{workload}: {report['failed']} of {report['attempted']} "
              f"queries failed; per-query results {report['digest'][:-2]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repro", choices=sorted(REPROS))
    parser.add_argument("--selftest", action="store_true",
                        help="run the reference oracle's hand-worked cases")
    args = parser.parse_args()
    if args.repro:
        repro(args.repro)
    elif args.selftest:
        build_dir = build()
        sys.exit(subprocess.run([str(build_dir / "oracle_test")]).returncode)
    else:
        if not args.workload:
            fail("--workload is required")
        if args.seed < 0:
            fail("--seed must be non-negative")
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            fail(f"{spec_path} not found")
        measure(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    main()
