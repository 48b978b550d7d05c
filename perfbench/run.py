#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
compiles the library from src/) into the directory named by
CARGO_TARGET_DIR, default .bench_build; build output goes to standard error.
It then runs the driver binary with a clean environment: MGT_THREADS pinned,
every other MGT_* knob removed, so the library's defaults are measured.

Untraced runs (--trace 0) repeat the set-up in SETUP_SAMPLES - 1 separate
processes and report the median set-up time over those and the measuring
process. The last line of standard output is the result object; the lines
before it, prefixed with '#', say what was measured.

Extra flags, for the self-test and for maintaining the golden digests:
    --size full|tiny     op size (default full)
    --emit-golden OPS    print the digests of ops 0..OPS-1 instead of timing
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.txt")
# bathtub_5g0 is run by hand only; README.md says why BENCHMARK.json omits it.
WORKLOADS = ("eye_5g0", "bathtub_5g0", "wafer_probe", "frames_lossy")
# Golden digests exist for DEFAULT_SEED; HELDOUT_SEED is the seed kept out of
# tuning, on which a claimed gain must also hold.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
# Worker threads pinned for every run: more threads on a small host spread
# wider run to run, and results are identical at every thread count.
THREADS = 2
SETUP_SAMPLES = 5
# Knobs the library reads; all are removed so defaults are measured.
KNOBS = ("MGT_SIMD", "MGT_RENDER_CACHE", "MGT_RENDER_CACHE_MB",
         "MGT_TIMING_MODE", "MGT_TELEMETRY", "MGT_TELEMETRY_BUF_MB",
         "MGT_TELEMETRY_DECIM", "MGT_OBS")
BUILD_TYPE = "Release"


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", "mgt_perfbench",
              "-j", jobs]]
    # Configure once; the build step re-runs CMake when its inputs change.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir, os.path.join(build_dir, "mgt_perfbench")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MGT_")}
    cleared = sorted(set(KNOBS) | {k for k in os.environ
                                   if k.startswith("MGT_") and k != "MGT_THREADS"})
    env["MGT_THREADS"] = str(min(THREADS, os.cpu_count() or 1))
    return env, cleared


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--golden", default=GOLDEN)
    p.add_argument("--emit-golden", type=int, default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir, binary = build()
    env, cleared = clean_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    if args.emit_golden:
        sys.exit(subprocess.run([binary] + common +
                                ["--emit-golden", str(args.emit_golden)],
                                env=env, cwd=ROOT).returncode)
    print("# env: MGT_THREADS=%s pinned; cleared %s; build %s"
          % (env["MGT_THREADS"], ",".join(cleared), BUILD_TYPE))

    setups = []
    setup_failed = 0
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            r = subprocess.run([binary] + common + ["--setup-only",
                                                    "--golden", args.golden],
                               env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
            sample = last_json(r.stdout) if r.returncode in (0, 1) else None
            if sample is None:
                fail("set-up run failed with code %d" % r.returncode)
            setups.append(sample["setup_s"])
            setup_failed += 0 if sample["correct"] else 1

    spans = os.path.join(build_dir, "spans")
    os.makedirs(spans, exist_ok=True)
    r = subprocess.run([binary] + common +
                       ["--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--golden", args.golden,
                        "--spans", spans],
                       env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail("driver failed with code %d" % r.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("# setup_s is the median of %d set-ups: %s"
              % (len(setups), ", ".join("%.4f" % s for s in setups)))
    # Each set-up process ran the warm-up op; count those ops too.
    result["attempted"] += SETUP_SAMPLES - 1 if setups else 0
    result["failed"] += setup_failed
    result["correct"] = result["correct"] and setup_failed == 0
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
