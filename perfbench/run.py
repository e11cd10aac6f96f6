#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <storm|rpc_chase|fib_lb|sim_paper> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
compiles the runtime from src/) into .bench_build/perfbench, then runs the
halbench binary with the same arguments. The binary's stdout is passed
through; its last line is the result JSON. A traced run also leaves the
spans of its last traced sample in .bench_build/perfbench/spans-<workload>.jsonl. If the binary dies (a runtime
panic such as a stalled machine or a failed HAL_ASSERT) or overruns its
time, the run is reported as fully failed. Build output goes to stderr.
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
RUN_BUDGET_S = 170  # the binary must finish well inside 180 s


def build():
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "halbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "halbench")


def failed_result(attempted):
    n = max(1, attempted)
    return {"correct": False, "attempted": n, "failed": n, "metrics": {}}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["storm", "rpc_chase", "fib_lb", "sim_paper"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # The benchmark takes no knobs: keep HAL_* settings out of its reach.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAL_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(RUN_BUDGET_S, proc.kill)
    watchdog.start()
    attempted = 0
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            last = line.strip()
            if last.startswith('{"sample"'):
                attempted += json.loads(last)["attempted"]
    finally:
        code = proc.wait()
        watchdog.cancel()
    if code < 0 or not last.startswith('{"correct"'):
        why = f"signal {-code}" if code < 0 else f"exit {code}, no result"
        print(f"perfbench: run failed ({why})", file=sys.stderr)
        print(json.dumps(failed_result(attempted)))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
