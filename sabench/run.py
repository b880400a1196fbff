#!/usr/bin/env python3
"""End-to-end benchmark of the SampleAttention library.

Usage (from the repository root):

    python3 sabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: prefill_long, serve_prefix (see BENCHMARK.json and
the comments at the top of prefill_long.cpp and serve.cpp).

The script builds the benchmark and the library from source into
.bench_build/sabench (Release, incremental after the first run), runs the
benchmark's own helper tests, pins the kernel thread pool (SATTN_THREADS) to
min(3, nproc - 1), whatever the environment says, and then runs one
measurement. One core stays free for the engine loop, the request generator
and the OS: on a 4-core host a 4-thread pool doubled the run-to-run spread
of prefill latency. The bounds in BENCHMARK.json hold at that pool size
only, so it is not a knob; the config record states it. The last line of its
standard output is one JSON object with the keys correct, attempted, failed
and metrics. It exits non-zero, printing no result, when the sources are
missing, the build fails or the helper tests fail; it exits non-zero after
printing the result when an output check failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "sabench"
WORKLOADS = ("prefill_long", "serve_prefix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"sabench: {msg}", file=sys.stderr, flush=True)


def build(jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs),
                  "--target", "sabench", "sabench_test"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_rev():
    """Content hash of the library and benchmark sources (the checkout may
    not be a git repository, so the configure-time git rev can be unknown)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    nproc = os.cpu_count() or 1
    threads = max(1, min(3, nproc - 1))
    env = dict(os.environ)
    env["SATTN_THREADS"] = str(threads)
    env.pop("SATTN_TRACE", None)  # tracing is the benchmark's decision
    env["SABENCH_SOURCE_REV"] = source_rev()

    if not build(min(4, nproc)):
        return 2
    test = subprocess.run([str(BUILD_DIR / "sabench_test")], stdout=sys.stderr,
                          stderr=sys.stderr, timeout=60)
    if test.returncode != 0:
        log("helper tests failed; refusing to report")
        return 2

    cmd = [str(BUILD_DIR / "sabench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 2
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
