// Shared flow pieces for the table/figure harnesses: the equivalents of the
// paper's synthesis scripts (§6), built on the pipeline PassManager so the
// benches report the same per-pass wall-clock profile the CLI does.
//
//  - prepare_mapped(): HDL analyzer -> decompose sync set/clear (XC4000E
//    registers have none) -> optimize (sweep) -> map to 4-LUTs with the
//    FlowMap delay model. This produces the "Table 1" view of a circuit.
//  - retime_and_remap(): insert the "retime" command after mapping
//    (minarea at best delay), then "remap" the combinational part.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "base/timer.h"
#include "mcretime/mc_retime.h"
#include "netlist/netlist.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/flow_context.h"
#include "pipeline/flow_script.h"
#include "pipeline/pass_manager.h"
#include "pipeline/passes.h"
#include "sim/equivalence.h"
#include "tech/sta.h"
#include "workload/generator.h"

namespace mcrt::bench {

struct MappedCircuit {
  std::string name;
  Netlist netlist;
  std::size_t ff = 0;
  std::size_t lut = 0;
  std::int64_t delay = 0;
  bool has_async = false;
  bool has_en = false;
  /// Per-pass wall clock of the flow that produced this circuit.
  PhaseProfile pass_profile;
};

inline MappedCircuit measure(std::string name, Netlist netlist) {
  MappedCircuit out;
  out.name = std::move(name);
  const auto stats = netlist.stats();
  out.ff = stats.registers;
  out.lut = stats.luts;
  out.has_async = stats.with_async > 0;
  out.has_en = stats.with_en > 0;
  out.delay = compute_period(netlist);
  out.netlist = std::move(netlist);
  return out;
}

/// Benches time the passes themselves: leave per-pass checking to the test
/// suites so the reported seconds stay comparable with the paper's.
inline PassManagerOptions bench_manager_options() {
  PassManagerOptions options;
  options.check_invariants = false;
  options.check_equivalence = false;
  return options;
}

/// Runs `script` over `rtl` through the standard registry; exits loudly on
/// a script or pass failure (bench scripts are static, so this is a bug).
inline MappedCircuit run_bench_flow(std::string name, Netlist rtl,
                                    const std::string& script) {
  FlowContext context(std::move(rtl));
  PassManager manager(bench_manager_options());
  if (const auto error =
          compile_flow_script(script, PassRegistry::standard(), manager)) {
    std::fprintf(stderr, "%s: bad bench flow script: %s\n", name.c_str(),
                 error->c_str());
    std::abort();
  }
  const FlowResult run = manager.run(context);
  if (!run.success) {
    std::fprintf(stderr, "%s: bench flow failed: %s\n", name.c_str(),
                 run.error.c_str());
    std::abort();
  }
  MappedCircuit out = measure(std::move(name), context.take_netlist());
  out.pass_profile = run.profile;
  return out;
}

/// The paper's "minimal area for best delay" preparation script.
inline MappedCircuit prepare_mapped(const CircuitProfile& profile) {
  // XC4000E flip-flops have no synchronous set/clear: decompose to logic.
  return run_bench_flow(profile.name, generate_circuit(profile),
                        "decompose-sync; sweep; map");
}

/// Runs `script` over every profile's generated circuit through the bulk
/// engine (one worker per hardware thread by default); generation happens
/// on the workers too. Aborts loudly on any failure, like run_bench_flow.
inline std::vector<MappedCircuit> run_suite_flow(
    const std::vector<CircuitProfile>& profiles, const std::string& script,
    std::size_t jobs = 0) {
  BulkOptions options;
  options.jobs = jobs;
  options.manager = bench_manager_options();
  options.keep_netlists = true;
  std::vector<BulkJob> batch;
  batch.reserve(profiles.size());
  for (const CircuitProfile& profile : profiles) {
    BulkJob job;
    job.name = profile.name;
    job.load = [profile](DiagnosticsSink&) -> std::optional<Netlist> {
      return generate_circuit(profile);
    };
    batch.push_back(std::move(job));
  }
  BulkReport report = BulkRunner(script, options).run(batch);
  std::vector<MappedCircuit> out;
  out.reserve(report.results.size());
  for (BulkJobResult& result : report.results) {
    if (!result.success || !result.netlist) {
      std::fprintf(stderr, "%s: bench suite flow failed: %s\n",
                   result.name.c_str(), result.error.c_str());
      std::abort();
    }
    MappedCircuit circuit =
        measure(result.name, std::move(*result.netlist));
    circuit.pass_profile = result.profile;
    out.push_back(std::move(circuit));
  }
  return out;
}

/// Bulk prepare_mapped() over a whole suite.
inline std::vector<MappedCircuit> prepare_mapped_suite(
    const std::vector<CircuitProfile>& profiles, std::size_t jobs = 0) {
  return run_suite_flow(profiles, "decompose-sync; sweep; map", jobs);
}

struct RetimedCircuit {
  MappedCircuit circuit;
  McRetimeStats stats;
  bool ok = false;
  bool equivalent = false;
  double seconds = 0.0;
};

/// "retime" (minarea at minimum period) + "remap", with equivalence check.
inline RetimedCircuit retime_and_remap(const MappedCircuit& mapped,
                                       const McRetimeOptions& options = {}) {
  RetimedCircuit out;
  FlowContext context(mapped.netlist);
  PassManager manager(bench_manager_options());
  manager.add(std::make_unique<RetimePass>(options));
  // Remap the combinational part after retiming (registers pass through).
  manager.add(std::make_unique<MapPass>());
  const FlowResult run = manager.run(context);
  if (!run.success) {
    std::fprintf(stderr, "  %s: %s\n", mapped.name.c_str(),
                 run.error.c_str());
    return out;
  }
  out.seconds = run.profile.total();
  out.stats = *context.retime_stats;
  out.circuit = measure(mapped.name, context.take_netlist());
  out.circuit.pass_profile = run.profile;
  out.ok = true;
  EquivalenceOptions eq_opt;
  eq_opt.runs = 2;
  eq_opt.cycles = 48;
  out.equivalent =
      check_sequential_equivalence(mapped.netlist, out.circuit.netlist, eq_opt)
          .equivalent;
  return out;
}

/// Bulk retime_and_remap() over a suite: the retime+remap pipelines run on
/// the bulk engine's work-stealing pool, then the per-circuit equivalence
/// checks fan out over the same pool. Results line up with `mapped` by
/// index; per-circuit failures are reported in RetimedCircuit::ok exactly
/// like the serial helper.
inline std::vector<RetimedCircuit> retime_and_remap_suite(
    const std::vector<MappedCircuit>& mapped,
    const McRetimeOptions& options = {}, std::size_t jobs = 0) {
  BulkOptions bulk_options;
  bulk_options.jobs = jobs;
  bulk_options.manager = bench_manager_options();
  bulk_options.keep_netlists = true;
  std::vector<BulkJob> batch;
  batch.reserve(mapped.size());
  for (const MappedCircuit& circuit : mapped) {
    batch.push_back(make_netlist_job(circuit.name, circuit.netlist));
  }
  BulkRunner runner(
      [options](PassManager& manager, std::string*) {
        manager.add(std::make_unique<RetimePass>(options));
        // Remap the combinational part after retiming (registers pass
        // through).
        manager.add(std::make_unique<MapPass>());
        return true;
      },
      bulk_options);

  ThreadPool pool(jobs);
  BulkReport report = runner.run(batch, pool);

  std::vector<RetimedCircuit> out(mapped.size());
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    BulkJobResult& result = report.results[i];
    RetimedCircuit& retimed = out[i];
    retimed.seconds = result.seconds;
    if (!result.success || !result.netlist || !result.retime_stats) {
      std::fprintf(stderr, "  %s: %s\n", result.name.c_str(),
                   result.error.c_str());
      continue;
    }
    retimed.stats = *result.retime_stats;
    retimed.circuit = measure(result.name, std::move(*result.netlist));
    retimed.circuit.pass_profile = result.profile;
    retimed.ok = true;
  }
  {  // Equivalence spot checks are independent: fan out over the pool.
    TaskGroup group(pool);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!out[i].ok) continue;
      group.run([&mapped, &out, i] {
        EquivalenceOptions eq_opt;
        eq_opt.runs = 2;
        eq_opt.cycles = 48;
        out[i].equivalent =
            check_sequential_equivalence(mapped[i].netlist,
                                         out[i].circuit.netlist, eq_opt)
                .equivalent;
      });
    }
    group.wait();
  }
  return out;
}

}  // namespace mcrt::bench
