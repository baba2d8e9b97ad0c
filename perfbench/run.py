#!/usr/bin/env python3
"""Retiming-flow benchmark: build the harness, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds ``perfbench_harness`` (CMake, RelWithDebInfo) into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``), runs it
on the workload, and prints as its last stdout line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The harness's full report
(provenance, pass count, output digest, problems) is the line before it.
Traced runs also write a Chrome trace-event file under the build directory.
``--workload all`` runs every workload in turn and prints each one's metrics
with their units, then one summary JSON line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the harness; build output goes to stderr.

    The compiler's temporary files go under the build directory too, so the
    benchmark writes nothing outside its checkout.
    """
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_harness")


def run_workload(harness, build_root, workload, args, wanted):
    """Runs the harness on one workload; returns (report, result line)."""
    command = [harness, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (workload, args.seed))]
    start = time.monotonic()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
        finally:
            # Also on SIGTERM (see main): never leave the harness running.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("harness printed no report")
    report = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in report["metrics"]:
            fail("harness did not report " + name)
        metrics[name] = {"value": report["metrics"][name],
                         "unit": metric["unit"]}
    for problem in report["problems"]:
        print("perfbench: " + problem, file=sys.stderr)
    print("perfbench: %s seed %d: %d pass(es) in %.1f s" %
          (workload, args.seed, report["passes"], time.monotonic() - start),
          file=sys.stderr)
    return report, {
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True,
                        help="simulation stimulus of the output checks")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated"))

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    harness = build(os.path.join(build_root, "perfbench"))

    if args.workload != "all":
        report, result = run_workload(harness, build_root, args.workload,
                                      args, wanted)
        print(json.dumps(report, sort_keys=True))
        print(json.dumps(result))
        return

    # Every workload in turn: a table per workload, then one summary line.
    results = {}
    for workload in names:
        _, result = run_workload(harness, build_root, workload, args, wanted)
        results[workload] = result
        print("%s (%s)" % (workload, "correct" if result["correct"]
                           else "INCORRECT"))
        for name, metric in result["metrics"].items():
            print("  %-34s %14.6g %s" % (name, metric["value"],
                                          metric["unit"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


if __name__ == "__main__":
    main()
