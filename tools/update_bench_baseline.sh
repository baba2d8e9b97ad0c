#!/bin/sh
# Regenerates the committed bench documents:
#   BENCH_retime.json / BENCH_sim.json / BENCH_window.json /
#   BENCH_cslow.json / BENCH_paper.json / BENCH_serve.json
#                                        full-suite perf trajectory (repo root;
#                                        the window report's 1e5-gate headline
#                                        entry takes a few minutes)
#   bench/baseline/BENCH_*.json          quick-suite baseline for CI's
#                                        bench-smoke and serve-chaos gates
#
# Run from the repo root on a quiet machine. The CI gate compares speedup
# *ratios*, seconds divided by an in-process calibration kernel
# ("*_calibrated") and deterministic solver outputs (C-slow period ratios,
# the paper report's Table 2 delay and #FF), never raw wall-clock. It must
# come from the default (RelWithDebInfo) build, matching what bench-smoke
# configures, and preferably from the host that runs the gate, since
# calibration only roughly cancels a change of CPU.
#
#   sh tools/update_bench_baseline.sh [build-dir]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target mcrt_cli

echo "== full suite (perf trajectory documents) =="
"$build_dir/tools/mcrt" bench --out-dir "$repo_root"
"$build_dir/tools/mcrt" loadtest --out-dir "$repo_root"

echo "== quick suite (CI regression baseline) =="
mkdir -p "$repo_root/bench/baseline"
"$build_dir/tools/mcrt" bench --quick --out-dir "$repo_root/bench/baseline"
"$build_dir/tools/mcrt" loadtest --quick --out-dir "$repo_root/bench/baseline"

echo "Updated:"
for doc in BENCH_retime.json BENCH_sim.json BENCH_window.json \
           BENCH_cslow.json BENCH_paper.json BENCH_serve.json; do
  echo "  $repo_root/$doc"
  echo "  $repo_root/bench/baseline/$doc"
done
echo "Review the speedup and Table 2 columns, then commit all twelve files."
