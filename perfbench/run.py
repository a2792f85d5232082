#!/usr/bin/env python3
"""Builds the HAP benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: serve_replay, train_hap and embed_large (BENCHMARK.json says
why each exists). The first run configures and builds
perfbench/CMakeLists.txt (the runner plus hap_served, from src/) into
.bench_build/perfbench; later runs only check that the build is current.
Times are reported in reference seconds, scaled by the speed the host
ran a fixed reference computation at around them (runner/pace.h).

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes the
run's spans as Chrome trace-event JSON to .bench_build/perfbench/traces/.
A failed output check or build exits non-zero without a result line.

Tests of the benchmark's own helpers:

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_replay", "train_hap", "embed_large")
# A run that has not printed its result by then is stuck; its process
# group (the runner and any hap_served it started) is killed.
RUNNER_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def quiet(command):
    """Runs a build step; its output is shown only when it fails."""
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, command)


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               *generator])
    quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
           "--target", *targets])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def runner_env():
    # Only the benchmark decides the program's telemetry and pool width.
    return {k: v for k, v in os.environ.items() if not k.startswith("HAP_")}


def run(args):
    build(["perfbench_runner", "hap_served"])
    work = os.path.join(BUILD, "work", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--served", os.path.join(BUILD, "hap_served"),
               "--work-dir", work,
               "--trace-file", os.path.join(
                   traces, "%s-seed%d.json" % (args.workload, args.seed))]
    runner = subprocess.Popen(command, cwd=ROOT, env=runner_env(),
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        out, _ = runner.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        log("%s did not finish within %d s" % (args.workload,
                                               RUNNER_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if runner.returncode != 0 or not lines:
        sys.stderr.write(out)
        log("%s failed with exit code %d" % (args.workload,
                                              runner.returncode))
        return 1
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected_metrics(args.trace == 1):
        log("metrics printed differ from BENCHMARK.json: %s" % names)
        return 1
    sys.stdout.write(out)
    return 0


def self_test():
    build(["perfbench_helpers_test"])
    # The tests write their temporary files under the build directory.
    env = dict(os.environ, TEST_TMPDIR=BUILD)
    return subprocess.run([os.path.join(BUILD, "perfbench_helpers_test")],
                          env=env).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (subprocess.CalledProcessError, OSError) as error:
        log(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
