#!/usr/bin/env python3
"""End-to-end benchmark of the Pregelix engine.

Builds perfbench/ (which compiles the engine under src/) and runs one
workload of it:

    python3 perfbench/run.py --workload pagerank-mem --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; so do the run's scratch files
and its records (spans, per-job layer readings, the engine trace). The last
line of stdout is the result: one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. The exit code is 0 only
when the run produced a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pagerank-mem", "sssp-auto", "pagerank-ooc")
# A run must end within 180 s; the first run of a checkout may take 900 s
# because it builds.
RUN_LIMIT_S = 175.0
FIRST_RUN_LIMIT_S = 890.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, deadline, env):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make and the compilers too) and waits for it."""
    with open(log, "a") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env, start_new_session=True)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -1


def build(build_dir, deadline, env):
    """Configures once, then lets cmake decide what is stale."""
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir], log, deadline,
                      env) != 0:
            fail("cmake configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "perfbench"], log, deadline, env) != 0:
        fail("build failed; see " + log)


def check_result(line, trace):
    """The binary's result line must have exactly the contract's shape."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ",".join(sorted(result)))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    names = sorted(m["name"] for m in want)
    if sorted(result["metrics"]) != names:
        missing = set(names) ^ set(result["metrics"])
        fail("metrics differ from BENCHMARK.json: " + ",".join(sorted(missing)))
    for m in want:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            fail("bad metric " + m["name"] + ": " + json.dumps(got))
    if result["attempted"] < 1:
        fail("no job was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    root = os.path.dirname(HERE)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Temporary files of the build and of the run stay in the checkout.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = os.path.join(build_dir, "perfbench")
    deadline = start + (RUN_LIMIT_S if os.path.exists(binary)
                        else FIRST_RUN_LIMIT_S)
    build(build_dir, deadline, env)

    out_dir = os.path.join(build_dir, "results")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    result = check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
