#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload run.py knows, those
BENCHMARK.json lists and bathtub_5g0, at the tiny op size it checks that an
untraced and a traced run succeed and emit exactly the metrics
BENCHMARK.json names, with their units; that a held-out seed passes on the
invariants alone; and that a run against a perturbed golden digest reports
the op as failed and exits non-zero. Exits 0 only if all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
sys.path.insert(0, HERE)
import run  # noqa: E402


def invoke(workload, trace, extra=()):
    r = subprocess.run(RUN + ["--workload", workload, "--seconds", "1",
                              "--trace", str(trace), "--size", "tiny"] +
                       list(extra),
                       cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = run.WORKLOADS
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(names):
        problems.append("BENCHMARK.json names a workload run.py lacks")

    for workload in names:
        for trace in (0, 1):
            code, result = invoke(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d" % (where, code))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: wrong result keys" % where)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: ops failed" % where)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append("%s: metrics %s, expected %s"
                                % (where, sorted(got), sorted(expect[trace])))
        code, result = invoke(workload, 0, ["--seed", str(run.HELDOUT_SEED)])
        if code != 0 or result is None or not result["correct"]:
            problems.append("%s: held-out seed failed" % workload)

    # A golden digest that no longer matches must fail the op it covers.
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    perturbed = os.path.join(build_dir, "golden-perturbed.txt")
    with open(run.GOLDEN) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        workload, size, op, digest = line.split()
        if size == "tiny" and op == "1":
            flipped = "%016x" % (int(digest, 16) ^ 1)
            lines[i] = " ".join((workload, size, op, flipped))
    with open(perturbed, "w") as f:
        f.write("\n".join(lines) + "\n")
    for workload in names:
        code, result = invoke(workload, 0, ["--golden", perturbed])
        if code == 0 or result is None or result["correct"] or \
                result["failed"] < 1:
            problems.append("%s: perturbed golden digest not detected"
                            % workload)

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
