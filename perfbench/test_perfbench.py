#!/usr/bin/env python3
"""Self-tests of the retiming-flow benchmark.

Run from the repository root (takes a few minutes; builds into
``$CARGO_TARGET_DIR/perfbench``, default ``.bench_build/perfbench``):

    python3 perfbench/test_perfbench.py

- the deterministic metrics (quality ratios, output digest, traced work
  counters) are identical across two runs, and for windowed-s16k at
  jobs=1 vs jobs=4;
- on the default seed, paper-flow's per-circuit Delay/#FF/#LUT match
  bench/table2_mc_retiming (computed through the bench's own helpers);
- the benchmark refuses to run, without printing a result, in a directory
  holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

BUILD_ROOT = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["paper-flow", "scaled-mono", "area-sweep", "windowed-s16k"]
RATIOS = ["period_ratio", "register_ratio", "lut_ratio", "pass_ratio"]
DEFAULT_SEED = 1

HARNESS = None


def setUpModule():
    global HARNESS
    HARNESS = run.build(BUILD_DIR)


def harness(workload, trace=0, seed=DEFAULT_SEED, jobs=0):
    """One pass of the workload (a tiny --seconds still runs one pass)."""
    command = [HARNESS, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.01", "--trace", str(trace)]
    if jobs:
        command += ["--jobs", str(jobs)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["correct"], report["problems"]
    return report


def deterministic(report):
    """The part of a report that must repeat exactly."""
    metrics = report["metrics"]
    if report["provenance"]["trace"]:
        kept = {k: v for k, v in metrics.items() if not k.endswith("_s")
                and k != "trace.coverage"}
    else:
        kept = {k: metrics[k] for k in RATIOS}
    return {"digest": report["digest"], "designs": report["designs"],
            "metrics": kept}


class Determinism(unittest.TestCase):
    def test_repeat_runs_agree(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = harness(workload)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(deterministic(first),
                                 deterministic(harness(workload)))

    def test_traced_counters_repeat(self):
        first = harness("paper-flow", trace=1)
        self.assertEqual(deterministic(first),
                         deterministic(harness("paper-flow", trace=1)))

    def test_windowed_jobs_do_not_change_results(self):
        self.assertEqual(deterministic(harness("windowed-s16k", jobs=1)),
                         deterministic(harness("windowed-s16k", jobs=4)))


class Table2(unittest.TestCase):
    def test_paper_flow_matches_table2(self):
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench_table2", "-j",
                        str(min(4, os.cpu_count() or 1))],
                       stdout=sys.stderr, check=True)
        table2 = json.loads(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_table2")],
            stdout=subprocess.PIPE, text=True, check=True).stdout)
        rows = harness("paper-flow")["designs"]
        self.assertEqual(len(rows), len(table2))
        for mine, ref in zip(rows, table2):
            with self.subTest(circuit=ref["name"]):
                self.assertTrue(ref["ok"])
                self.assertEqual(mine["name"], ref["name"])
                self.assertEqual(mine["period_after"], ref["delay"])
                self.assertEqual(mine["registers_after"], ref["ff"])
                self.assertEqual(mine["luts_after"], ref["lut"])


class Contract(unittest.TestCase):
    def test_refuses_without_sources(self):
        here = os.path.dirname(os.path.abspath(__file__))
        bare = os.path.join(BUILD_ROOT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"),
                    bare)
        shutil.copytree(here, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-flow",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
