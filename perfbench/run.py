#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench.cpp) for one workload.

    python3 perfbench/run.py --workload plain --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. perfbench.cpp and libesrp are built with CMake
into $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr,
so the last stdout line is the benchmark's JSON result. Traced runs write
their spans to <build>/traces/.

Exact-match gate: the benchmark prints its deterministic counters on a line
starting with "exact ". They are stored per (workload, seed, trace, binary)
under <build>/exact/; a later run of the same binary with the same arguments
must reproduce them bit for bit, otherwise the result is marked incorrect.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure and build; returns the binary path or exits non-zero."""
    steps = [["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]]
    # A configured tree re-runs CMake by itself when a build file changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(3)
    return os.path.join(build_dir, "perfbench")


def exact_gate(build_dir, binary, args, exact_line):
    """True unless a stored run of this binary+arguments disagrees."""
    st = os.stat(binary)
    stamp = "%d-%d" % (st.st_mtime_ns, st.st_size)
    counters = json.loads(exact_line[len("exact "):])
    d = os.path.join(build_dir, "exact")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev.get("binary") == stamp and prev.get("counters") != counters:
            sys.stderr.write("run.py: exact counters differ from the previous run "
                             "of this binary and seed:\n  before %s\n  now    %s\n"
                             % (prev.get("counters"), counters))
            return False
    with open(path, "w") as f:
        json.dump({"binary": stamp, "counters": counters}, f)
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            build_dir, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("run.py: perfbench exited with %d\n" % proc.returncode)
        sys.exit(proc.returncode or 1)

    result = json.loads(lines[-1])
    exact = [l for l in lines if l.startswith("exact ")]
    if not exact or not exact_gate(build_dir, binary, args, exact[-1]):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
