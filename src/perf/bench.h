// Benchmark harness for the data-oriented core: a pinned workload suite
// timed against reference engines, emitted as schema-versioned JSON so the
// perf trajectory is tracked in-repo (BENCH_retime.json / BENCH_sim.json at
// the repo root, regenerated by tools/update_bench_baseline.sh).
//
// Five reports:
//  - retime: FEAS feasibility probes on the lowered mc-graphs of the paper
//    suite plus workload::random_suite, timed against the difference-
//    constraint formulation (bounded_feasible: circuit plus W/D period
//    constraints, SPFA) on the same bound-stripped graph and the same
//    probe schedule. The reference side runs fewer repetitions.
//  - sim: 64-pattern ternary simulation, scalar Simulator (one run per
//    pattern) vs the bit-parallel WordSimulator on the compact core,
//    identical stimulus.
//  - window: retime_windowed's label solve vs the monolithic minperiod
//    solver on workload::scaled_profile designs (BENCH_window.json). The
//    headline >= 1e5-gate entry runs the monolithic solve under a deadline
//    and sets monolithic_capped=true if it hits it, recording the speedup
//    as a lower bound. Entries also record the period quality gap vs the
//    monolithic optimum where it is known.
//  - cslow: retime(cslow=C) throughput on the workload suite plus the
//    register-class zoo and the dual-clock rig, C in {2, 3}
//    (BENCH_cslow.json). The speedup column is a *period ratio*, not
//    wall-clock: aggregate throughput of the C-slowed design is 1/T_c
//    stream-steps per second vs the monolithic 1/T_mono, so
//    speedup_throughput = T_mono / T_c (<= C by construction, >= 1 by
//    register-slack dominance). Period ratios are solver outputs —
//    deterministic and machine-independent — so the committed baseline
//    gates them exactly. Each entry is verified by the stream-equivalence
//    checker (multi-clock entries record the documented skip instead).
//    Entries that cannot recover throughput are classified by certificate
//    — floor_bound (combinational PI->PO or control-cone floor),
//    class_bound (a control-stripped single-class relaxation beats the
//    real solve: the §4 class constraints withheld the gain) or
//    interface_bound (the relaxation ties: only interface-crossing
//    peripheral retiming could do better) — and excluded from the
//    headline geomean, which measures the recoverable rest.
//  - paper: the paper's Tables 1-3, Figs. 1/4/5, the area/period sweep and
//    the class-count ablation computed once over the C1-C10 suite
//    (BENCH_paper.json, paper_bench.cpp). Delays and register counts are
//    solver outputs; there is no speedup column.
//
// Every timed pair is also *verified* per circuit (the same feasibility
// verdict on every probe and a min period the constraint system admits at
// P and rejects at P - 1; lane-exact output words), so a bench run doubles
// as a coarse-grained differential — `identical` is part of the schema and
// validate_bench_report() rejects documents where any entry diverged.
//
// Regression gating compares ratios, calibrated seconds and solver
// outputs, never raw wall-clock, so the committed baselines travel between
// hosts. Wall-clock speedup ratios (retime, sim, serve) get a slack. The
// retime and window entries also carry each side's seconds divided by an
// in-process calibration kernel that runs no mcrt code ("*_calibrated");
// those are ceilings with the same slack, so either side getting slower
// fails. The window document's speedup is not gated: its reference side is
// the monolithic min-period solve, and a faster reference is not a
// regression. The deterministic documents (cslow's period ratios, paper's
// Table 2 delay and #FF) are gated with no slack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.h"

namespace mcrt {

inline constexpr const char* kBenchRetimeSchema = "mcrt-bench-retime/2";
inline constexpr const char* kBenchSimSchema = "mcrt-bench-sim/2";
inline constexpr const char* kBenchWindowSchema = "mcrt-bench-window/1";
inline constexpr const char* kBenchCslowSchema = "mcrt-bench-cslow/1";
inline constexpr const char* kBenchPaperSchema = "mcrt-bench-paper/1";

struct BenchOptions {
  /// Trimmed circuit list and fewer repetitions; the CI smoke setting.
  bool quick = false;
  /// Seed for workload::random_suite and the simulation stimulus.
  std::uint64_t seed = 1;
};

/// Runs the retiming benchmark; returns a kBenchRetimeSchema document.
Json run_retime_bench(const BenchOptions& options);

/// Runs the simulation benchmark; returns a kBenchSimSchema document.
Json run_sim_bench(const BenchOptions& options);

/// Runs the windowed-vs-monolithic retiming benchmark; returns a
/// kBenchWindowSchema document. Quick mode keeps the uncapped entries only
/// (minutes -> seconds); the full run adds the capped 1e5-gate headline.
Json run_window_bench(const BenchOptions& options);

/// Runs the C-slow throughput benchmark; returns a kBenchCslowSchema
/// document whose summary carries `geomean_speedup_throughput_c2`, the
/// headline aggregate-throughput multiplier at C=2 (contract: >= 1.5).
Json run_cslow_bench(const BenchOptions& options);

/// Runs the paper report; returns a kBenchPaperSchema document. Quick mode
/// keeps C1-C3, Fig. 1 and the class-count ablation.
Json run_paper_bench(const BenchOptions& options);

/// Structural check of a bench document against `schema` (one of the
/// constants above): entries present, speedup columns numeric, every entry
/// verified identical; for the paper report, every Table 2 row carries a
/// delay and #FF and passed its equivalence check (eq). Returns "" when
/// valid, else a description.
std::string validate_bench_report(const Json& report,
                                  const std::string& schema);

/// Compares `current` against `baseline`: a per-circuit speedup below
/// baseline * (1 - slack) or a worse geomean (except in the window
/// document), a "*_calibrated" time or a paper Table 2 delay or #FF above
/// baseline * (1 + slack), or a circuit missing from `current` is a
/// regression. Returns human-readable descriptions; empty = no regression.
std::vector<std::string> bench_regressions(const Json& current,
                                           const Json& baseline,
                                           double slack);

/// The slack bench_regressions gets for a `schema` document: `max_regress`
/// for wall-clock speedup ratios, 0 for the deterministic documents (cslow,
/// paper), whose solver outputs must reproduce exactly.
double bench_gate_slack(const std::string& schema, double max_regress);

/// Multi-line serialization (one entry per line) so committed bench files
/// diff cleanly; Json::parse round-trips it.
std::string write_bench_report(const Json& report);

}  // namespace mcrt
