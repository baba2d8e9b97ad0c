// Retiming-flow benchmark harness (see README.md in this directory).
//
// One process runs one workload. Untraced (--trace 0) it drives the
// library's public entry points exactly as a user would and reports the
// end-to-end metrics; traced (--trace 1) it first runs the same public flow
// once as the reference, then replays it layer by layer — calling each
// module's public function in the order mc_retime / retime_windowed call
// them — timing every call as a span. The replica's netlists must be
// byte-identical to the reference, or the run fails.
//
// The last line of stdout is the full report as one JSON object (provenance,
// metrics, per-design rows); run.py turns it into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "base/thread_pool.h"
#include "base/version.h"
#include "blif/blif.h"
#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mc_retime.h"
#include "mcretime/mcgraph.h"
#include "mcretime/rebuild.h"
#include "mcretime/relocate.h"
#include "mcretime/sharing.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "transform/decompose_controls.h"
#include "transform/sweep.h"
#include "verify/ternary_bmc.h"
#include "window/extract.h"
#include "window/partition.h"
#include "window/windowed_retime.h"
#include "workload/generator.h"

namespace {

using namespace mcrt;
using Clock = std::chrono::steady_clock;

// --- Command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;  ///< simulation stimulus
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 0;  ///< windowed workers; 0 = min(4, nproc)
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 [--jobs J] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--jobs") {
      args.jobs = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder: workload -> design -> layer. Layer spans add
/// their duration to the per-pass layer totals; everything is written out
/// as Chrome trace events once the run ends.
class Tracer {
 public:
  struct Event {
    std::string name;
    double start = 0;  ///< seconds since the tracer's epoch
    double dur = 0;
    int id = 0;
    int parent = 0;
  };

  void open(std::string name) {
    stack_.push_back({std::move(name), now(), 0, next_id_++,
                      stack_.empty() ? 0 : stack_.back().id});
  }
  double close() {
    Event event = std::move(stack_.back());
    stack_.pop_back();
    const double dur = now() - event.start;
    event.dur = dur;
    // Depth 2 below the workload span: a layer call.
    if (stack_.size() == 2) layer_seconds[event.name] += dur;
    events_.push_back(std::move(event));
    return dur;
  }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  std::map<std::string, double> layer_seconds;  ///< reset per pass

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> stack_;
  std::vector<Event> events_;
  int next_id_ = 1;
};

/// A layer span when tracing, nothing otherwise (the untraced run shares
/// the transform / map / verify code with the traced one).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Work counters of one pass, summed over the workload's designs.
using Counters = std::map<std::string, double>;
/// Retiming bounds tightened by justification failures, per vertex.
using BoundOverlay = std::map<std::uint32_t, std::int64_t>;

// --- Workloads ---------------------------------------------------------------

enum class Kind { kPaperFlow, kScaledMono, kAreaSweep, kWindowed };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper-flow", Kind::kPaperFlow},
    {"scaled-mono", Kind::kScaledMono},
    {"area-sweep", Kind::kAreaSweep},
    {"windowed-s16k", Kind::kWindowed},
};

constexpr std::size_t kScaledGates = 4000;
constexpr std::size_t kWindowedGates = 16000;
constexpr std::size_t kWindowSize = 1024;
constexpr std::size_t kMinPasses = 2;
/// scaled_profile seed of the scaled workloads' circuit.
constexpr std::uint64_t kDesignSeed = 1;
/// area-sweep target periods, as multiples of the design's own period
/// (every target is feasible, so minperiod never runs).
constexpr double kAreaLadder[] = {1.0, 1.5, 2.0};

/// One unit of flow work: an input netlist plus, for area-sweep, the target
/// period it is retimed at. Designs of area-sweep share one netlist.
struct Design {
  std::string name;
  std::shared_ptr<const Netlist> input;
  std::int64_t target_period = 0;
};

/// Workload circuits come delay-less; unit-delay LUTs give the retimers a
/// real timing problem (the convention of the repo's retime/window benches).
Netlist with_lut_delays(Netlist circuit) {
  for (std::uint32_t v = 0; v < circuit.node_count(); ++v) {
    const NodeId id{v};
    if (circuit.node(id).kind == NodeKind::kLut) circuit.set_node_delay(id, 10);
  }
  return circuit;
}

/// Generates the workload's circuits: paper-flow is the paper's suite
/// (C1-C10 with their own seeds), the scaled workloads draw theirs from
/// kDesignSeed. Circuits are pinned per workload so the quality ratios
/// repeat exactly and timing spread is the machine's, not the design's;
/// --seed varies the simulation stimulus of the output checks.
std::vector<Design> generate(Kind kind) {
  std::vector<Design> designs;
  switch (kind) {
    case Kind::kPaperFlow:
      for (const CircuitProfile& profile : paper_suite()) {
        designs.push_back({profile.name,
                           std::make_shared<Netlist>(generate_circuit(profile)),
                           0});
      }
      break;
    case Kind::kScaledMono:
    case Kind::kAreaSweep: {
      const CircuitProfile profile = scaled_profile(kScaledGates, kDesignSeed);
      auto input = std::make_shared<const Netlist>(
          with_lut_delays(generate_circuit(profile)));
      if (kind == Kind::kScaledMono) {
        designs.push_back({profile.name, input, 0});
        break;
      }
      const std::int64_t period = compute_period(*input);
      for (const double step : kAreaLadder) {
        const auto target = static_cast<std::int64_t>(
            std::ceil(static_cast<double>(period) * step));
        designs.push_back({profile.name + "@" + std::to_string(target), input,
                           target});
      }
      break;
    }
    case Kind::kWindowed: {
      const CircuitProfile profile =
          scaled_profile(kWindowedGates, kDesignSeed);
      designs.push_back({profile.name,
                         std::make_shared<Netlist>(
                             with_lut_delays(generate_circuit(profile))),
                         0});
      break;
    }
  }
  return designs;
}

// --- The flow, through the public entry points or layer by layer -------------

/// What one design's pass produced. `retimed` is the retiming engine's
/// output (the byte-identity subject), `result` the final netlist (after
/// remap on paper-flow), `before` the netlist retiming started from.
struct DesignRun {
  bool success = false;
  std::string error;
  Netlist before;
  Netlist retimed;
  Netlist result;
  /// Final labels: from the traced replica, and from retime_windowed
  /// (mc_retime returns none).
  std::vector<std::int64_t> labels;
  /// Traced replica only: the lowered graph (with any tightened bounds)
  /// the labels must be legal on.
  RetimeGraph graph;
};

FlowMapResult map_luts(const Netlist& netlist, Tracer* tracer) {
  Span span(tracer, "tech.flowmap");
  return flowmap_map(decompose_to_binary(netlist), FlowMapOptions{});
}

/// The Table-2 front end: decompose-sync; sweep; map.
Netlist front_end(const Netlist& rtl, Tracer* tracer) {
  Netlist decomposed;
  {
    Span span(tracer, "transform.decompose_sync");
    decomposed = decompose_sync_controls(rtl);
  }
  Netlist swept;
  {
    Span span(tracer, "transform.sweep");
    swept = sweep(decomposed);
  }
  return map_luts(swept, tracer).mapped;
}

McRetimeOptions retime_options(const Design& design) {
  McRetimeOptions options;
  options.target_period = design.target_period;
  return options;
}

WindowedRetimeOptions windowed_options(std::size_t jobs) {
  WindowedRetimeOptions options;
  options.partition.max_window = kWindowSize;
  options.jobs = jobs;
  return options;
}

/// Untraced flow for one design: the public entry points only.
DesignRun run_public(Kind kind, const Design& design, std::size_t jobs) {
  DesignRun run;
  run.before = kind == Kind::kPaperFlow ? front_end(*design.input, nullptr)
                                        : *design.input;
  if (kind == Kind::kWindowed) {
    WindowedRetimeResult r =
        retime_windowed(run.before, windowed_options(jobs));
    run.success = r.success;
    run.error = r.error;
    run.retimed = std::move(r.netlist);
    run.labels = std::move(r.labels);
  } else {
    McRetimeResult r = mc_retime(run.before, retime_options(design));
    run.success = r.success;
    run.error = r.error;
    run.retimed = std::move(r.netlist);
  }
  if (!run.success) return run;
  if (kind == Kind::kPaperFlow) {
    run.result = map_luts(run.retimed, nullptr).mapped;
  } else {
    run.result = run.retimed;
  }
  return run;
}

/// Steps 1-3 of mc_retime (prepare_mc_graph), one span per layer.
McPrepared traced_prepare(const Netlist& input, const McRetimeOptions& options,
                          Tracer& tracer, Counters& counters) {
  McPrepared prepared;
  {
    Span span(&tracer, "mcretime.build_graph");
    prepared.graph = build_mc_graph(input, options.class_options);
  }
  counters["mcretime.mc_vertices"] +=
      static_cast<double>(prepared.graph.vertex_count());
  MaximalRetimingResult maximal;
  {
    Span span(&tracer, "mcretime.bounds");
    maximal = compute_mc_bounds(prepared.graph);
  }
  prepared.bounds = std::move(maximal.bounds);
  prepared.num_classes = prepared.graph.classes().class_count();
  prepared.possible_steps = prepared.bounds.possible_steps;
  counters["mcretime.classes"] += static_cast<double>(prepared.num_classes);
  counters["mcretime.possible_steps"] +=
      static_cast<double>(prepared.possible_steps);
  counters["mcretime.bounds_capped"] += prepared.bounds.hit_cap ? 1 : 0;
  if (options.sharing_modification &&
      options.objective == McRetimeOptions::Objective::kMinAreaMinPeriod) {
    Span span(&tracer, "mcretime.sharing");
    auto modified = apply_sharing_modification(prepared.graph, prepared.bounds,
                                               maximal.backward_graph);
    prepared.graph = std::move(modified.graph);
    prepared.bounds = std::move(modified.bounds);
    prepared.separators = modified.separators_inserted;
  }
  counters["mcretime.separators"] += static_cast<double>(prepared.separators);
  return prepared;
}

/// Applies one relocation failure to the bound overlays, as mc_retime and
/// retime_windowed do. Returns false when the bound cannot make progress.
bool tighten(const RelocateResult& relocation,
             BoundOverlay& upper, BoundOverlay& lower, std::string* error) {
  const std::uint32_t v = relocation.failed_vertex.value();
  if (relocation.failed_backward) {
    const auto it = upper.find(v);
    if (it != upper.end() && it->second <= relocation.achieved) {
      *error = "justification failure could not be bounded away: " +
               relocation.failure_reason;
      return false;
    }
    upper[v] = relocation.achieved;
  } else {
    const auto it = lower.find(v);
    if (it != lower.end() && it->second >= relocation.achieved) {
      *error = "scheduling failure could not be bounded away: " +
               relocation.failure_reason;
      return false;
    }
    lower[v] = relocation.achieved;
  }
  return true;
}

void count_relocation(const RelocateStats& stats, Counters& counters) {
  counters["mcretime.local_justifications"] +=
      static_cast<double>(stats.local_justifications);
  counters["mcretime.global_justifications"] +=
      static_cast<double>(stats.global_justifications);
}

std::size_t moved_layers(const McGraph& graph,
                         const std::vector<std::int64_t>& labels) {
  std::size_t moved = 0;
  for (std::size_t v = 1; v < graph.vertex_count(); ++v) {
    if (graph.kind(VertexId{static_cast<std::uint32_t>(v)}) ==
        McVertexKind::kGate) {
      moved += static_cast<std::size_t>(std::abs(labels[v]));
    }
  }
  return moved;
}

/// mc_retime, step by step (src/mcretime/mc_retime.cpp): prepare, then the
/// attempt loop — target period or reused phi or min-period, min-area,
/// relocation — tightening a bound and re-solving on justification failure.
void traced_mc_retime(const Netlist& input, const McRetimeOptions& options,
                      Tracer& tracer, Counters& counters, DesignRun& run) {
  McPrepared prepared = traced_prepare(input, options, tracer, counters);
  const McGraph& graph = prepared.graph;
  BoundOverlay tightened_upper;
  BoundOverlay tightened_lower;
  McGraph relocated;
  std::vector<std::int64_t> labels;
  RetimeGraph basic;
  bool implemented = false;
  std::int64_t phi = -1;
  std::int64_t area = 0;  ///< of the min-area solve that was implemented
  std::vector<DifferenceConstraint> period_constraints;
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    counters["mcretime.attempts"] += 1;
    {
      Span span(&tracer, "mcretime.lower");
      basic = lower_to_retime_graph(graph, prepared.bounds);
      for (const auto& [v, upper] : tightened_upper) {
        basic.set_bounds(VertexId{v},
                         std::max(basic.lower_bound(VertexId{v}),
                                  -RetimeGraph::kNoBound),
                         std::min(upper, basic.upper_bound(VertexId{v})));
      }
      for (const auto& [v, lower] : tightened_lower) {
        basic.set_bounds(VertexId{v},
                         std::max(lower, basic.lower_bound(VertexId{v})),
                         basic.upper_bound(VertexId{v}));
      }
      // mc_retime records period_before here on every attempt.
      (void)basic.period();
    }
    bool have_labels = false;
    if (phi < 0 && options.target_period > 0) {
      std::vector<DifferenceConstraint> target_constraints;
      {
        Span span(&tracer, "retime.period_constraints");
        generate_period_constraints(basic, options.target_period,
                                    target_constraints);
      }
      counters["retime.period_constraints"] +=
          static_cast<double>(target_constraints.size());
      std::optional<std::vector<std::int64_t>> r;
      {
        Span span(&tracer, "retime.bounded_feasible");
        r = bounded_feasible(basic, options.target_period, &target_constraints);
      }
      if (r) {
        labels = std::move(*r);
        phi = options.target_period;
        period_constraints = std::move(target_constraints);
        have_labels = true;
      }
    }
    if (!have_labels && phi >= 0) {
      Span span(&tracer, "retime.bounded_feasible");
      if (auto r = bounded_feasible(basic, phi, &period_constraints)) {
        labels = std::move(*r);
        have_labels = true;
      }
    }
    if (!have_labels) {
      RetimeSolution minperiod;
      {
        Span span(&tracer, "retime.minperiod");
        minperiod = minperiod_retime(basic, FeasImpl::kCsr);
      }
      if (!minperiod.feasible) {
        run.error = "minperiod retiming infeasible";
        return;
      }
      labels = minperiod.r;
      phi = minperiod.period;
      period_constraints.clear();
      Span span(&tracer, "retime.period_constraints");
      generate_period_constraints(basic, phi, period_constraints);
      counters["retime.period_constraints"] +=
          static_cast<double>(period_constraints.size());
    }
    if (options.objective == McRetimeOptions::Objective::kMinAreaMinPeriod) {
      Span span(&tracer, "retime.minarea");
      const MinAreaResult minarea =
          minarea_retime(basic, phi, &period_constraints);
      if (minarea.feasible) {
        labels = minarea.r;
        area = minarea.area;
      }
      // mc_retime's register_estimate.
      (void)basic.shared_register_area(labels);
    }
    RelocateResult relocation;
    {
      Span span(&tracer, "mcretime.relocate");
      relocated = graph;
      relocation = relocate_registers(relocated, input, labels,
                                      options.global_justification_budget);
    }
    count_relocation(relocation.stats, counters);
    if (relocation.success) {
      implemented = true;
      break;
    }
    if (!tighten(relocation, tightened_upper, tightened_lower, &run.error)) {
      return;
    }
  }
  if (!implemented) {
    run.error = "relocation failed after max attempts";
    return;
  }
  counters["retime.minarea_area"] += static_cast<double>(area);
  counters["mcretime.moved_layers"] +=
      static_cast<double>(moved_layers(graph, labels));
  {
    Span span(&tracer, "mcretime.rebuild");
    run.retimed = rebuild_netlist(relocated, input);
  }
  run.labels = std::move(labels);
  run.graph = std::move(basic);
  run.success = true;
}

// retime_windowed's private helpers (src/window/windowed_retime.cpp),
// reproduced verbatim so the replica calls the same public layer functions.

std::optional<std::vector<std::int64_t>> solve_window(
    const RetimeGraph& local, const CancelToken* cancel) {
  const RetimeSolution sol = minperiod_retime(local, FeasImpl::kCsr, cancel);
  if (!sol.feasible) return std::nullopt;
  if (local.check_legal(sol.r).empty()) return sol.r;
  for (const std::int64_t phi : candidate_periods(local, cancel)) {
    if (phi < sol.period) continue;
    if (auto r = bounded_feasible(local, phi, nullptr, cancel)) return r;
  }
  return std::nullopt;
}

std::int64_t shift_lower(std::int64_t bound, std::int64_t r) {
  return bound <= -RetimeGraph::kNoBound ? bound : bound - r;
}
std::int64_t shift_upper(std::int64_t bound, std::int64_t r) {
  return bound >= RetimeGraph::kNoBound ? bound : bound - r;
}

RetimeGraph reweighted(const RetimeGraph& global,
                       const std::vector<std::int64_t>& r,
                       const BoundOverlay& tight_lower,
                       const BoundOverlay& tight_upper) {
  RetimeGraph g = global;
  g.apply(r);
  for (std::size_t v = 1; v < g.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    std::int64_t lo = global.lower_bound(vid);
    std::int64_t hi = global.upper_bound(vid);
    if (const auto it = tight_lower.find(static_cast<std::uint32_t>(v));
        it != tight_lower.end()) {
      lo = std::max(lo, it->second);
    }
    if (const auto it = tight_upper.find(static_cast<std::uint32_t>(v));
        it != tight_upper.end()) {
      hi = std::min(hi, it->second);
    }
    g.set_bounds(vid, shift_lower(lo, r[v]), shift_upper(hi, r[v]));
  }
  return g;
}

/// retime_windowed, step by step: prepare, lower, partition, parallel
/// window solves + refinement + min-area sweep, relocation with
/// single-window (or full-graph) re-solves on justification failure.
void traced_windowed(const Netlist& input, const WindowedRetimeOptions& options,
                     Tracer& tracer, Counters& counters, DesignRun& run) {
  McPrepared prepared = traced_prepare(input, options.base, tracer, counters);
  const McGraph& mcg = prepared.graph;
  RetimeGraph global;
  std::int64_t phi = 0;
  {
    Span span(&tracer, "mcretime.lower");
    global = lower_to_retime_graph(mcg, prepared.bounds);
    phi = global.period();
  }
  const std::size_t n = global.vertex_count();
  WindowPartition part;
  std::unique_ptr<ThreadPool> pool;
  {
    Span span(&tracer, "window.partition");
    pool = std::make_unique<ThreadPool>(options.jobs);
    part = partition_mc_graph(mcg, options.partition);
  }
  counters["window.windows"] += static_cast<double>(part.window_count());
  counters["window.cut_edges"] += static_cast<double>(part.cut_edges);

  std::atomic<std::size_t> timeouts{0};
  const auto run_windows = [&](const RetimeGraph& g,
                               const WindowPartition& sweep_part,
                               std::vector<std::int64_t>& delta,
                               bool minarea_mode, std::int64_t phi_target) {
    const BoundaryTiming timing = compute_boundary_timing(g);
    TaskGroup group(*pool);
    for (std::size_t w = 0; w < sweep_part.window_count(); ++w) {
      group.run([&, w] {
        CancelToken token(options.base.cancel);
        if (options.window_timeout_seconds > 0) {
          token.set_timeout(options.window_timeout_seconds);
        }
        try {
          const WindowProblem prob = extract_window(g, sweep_part, w, timing);
          if (minarea_mode) {
            const std::int64_t phi_local =
                std::max(phi_target, prob.graph.period());
            const MinAreaResult ma =
                minarea_retime(prob.graph, phi_local, nullptr, &token);
            if (ma.feasible && prob.graph.check_legal(ma.r).empty()) {
              stitch_window_labels(prob, ma.r, delta);
            }
          } else if (auto r = solve_window(prob.graph, &token)) {
            stitch_window_labels(prob, *r, delta);
          }
        } catch (const CancelledError&) {
          if (cancel_requested(options.base.cancel) != StopReason::kNone) {
            throw;
          }
          timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    group.wait();
  };

  std::vector<std::int64_t> labels(n, 0);
  {
    Span span(&tracer, "window.retime");
    run_windows(global, part, labels, /*minarea_mode=*/false, 0);
    const std::string legal = global.check_legal(labels);
    if (!legal.empty()) {
      run.error = "windowed retiming produced illegal labels: " + legal;
      return;
    }
    phi = global.period(labels);
  }
  for (std::size_t round = 1; round <= options.refine_rounds; ++round) {
    WindowPartition repart;
    {
      Span span(&tracer, "window.partition");
      PartitionOptions shifted = options.partition;
      shifted.seed = options.partition.seed + round;
      repart = partition_mc_graph(mcg, shifted);
    }
    Span span(&tracer, "window.retime");
    const RetimeGraph rg = reweighted(global, labels, {}, {});
    std::vector<std::int64_t> delta(n, 0);
    run_windows(rg, repart, delta, /*minarea_mode=*/false, 0);
    std::vector<std::int64_t> candidate = labels;
    for (std::size_t v = 0; v < n; ++v) candidate[v] += delta[v];
    if (global.check_legal(candidate).empty()) {
      const std::int64_t refined = global.period(candidate);
      if (refined < phi) {
        labels = std::move(candidate);
        phi = refined;
      }
    }
  }
  if (options.base.objective ==
          McRetimeOptions::Objective::kMinAreaMinPeriod &&
      part.window_count() > 0) {
    Span span(&tracer, "window.retime");
    const RetimeGraph rg = reweighted(global, labels, {}, {});
    std::vector<std::int64_t> delta(n, 0);
    run_windows(rg, part, delta, /*minarea_mode=*/true, phi);
    std::vector<std::int64_t> candidate = labels;
    for (std::size_t v = 0; v < n; ++v) candidate[v] += delta[v];
    if (global.check_legal(candidate).empty() &&
        global.period(candidate) <= phi &&
        global.shared_register_area(candidate) <
            global.shared_register_area(labels)) {
      labels = std::move(candidate);
    }
  }
  counters["window.timeouts"] += static_cast<double>(timeouts.load());

  BoundOverlay tightened_upper;
  BoundOverlay tightened_lower;
  McGraph relocated;
  bool implemented = false;
  for (std::size_t attempt = 0; attempt < options.base.max_attempts;
       ++attempt) {
    counters["mcretime.attempts"] += 1;
    RelocateResult relocation;
    {
      Span span(&tracer, "mcretime.relocate");
      relocated = mcg;
      relocation = relocate_registers(relocated, input, labels,
                                      options.base.global_justification_budget);
    }
    count_relocation(relocation.stats, counters);
    if (relocation.success) {
      implemented = true;
      break;
    }
    if (!tighten(relocation, tightened_upper, tightened_lower, &run.error)) {
      return;
    }
    const std::uint32_t failed = relocation.failed_vertex.value();
    Span span(&tracer, "window.retime");
    bool resolved = false;
    const std::uint32_t w = part.window_of[failed];
    if (w != WindowPartition::kUnassigned) {
      const RetimeGraph rg =
          reweighted(global, labels, tightened_lower, tightened_upper);
      const BoundaryTiming timing = compute_boundary_timing(rg);
      const WindowProblem prob = extract_window(rg, part, w, timing);
      if (auto r = solve_window(prob.graph, options.base.cancel)) {
        std::vector<std::int64_t> delta(n, 0);
        stitch_window_labels(prob, *r, delta);
        std::vector<std::int64_t> candidate = labels;
        for (std::size_t i = 0; i < n; ++i) candidate[i] += delta[i];
        if (global.check_legal(candidate).empty()) {
          labels = std::move(candidate);
          resolved = true;
          counters["window.resolves"] += 1;
        }
      }
    }
    if (!resolved) {
      counters["window.global_fallbacks"] += 1;
      RetimeGraph g = global;
      for (const auto& [vv, hi] : tightened_upper) {
        const VertexId vid{vv};
        g.set_bounds(vid, g.lower_bound(vid), std::min(hi, g.upper_bound(vid)));
      }
      for (const auto& [vv, lo] : tightened_lower) {
        const VertexId vid{vv};
        g.set_bounds(vid, std::max(lo, g.lower_bound(vid)), g.upper_bound(vid));
      }
      const RetimeSolution sol =
          minperiod_retime(g, FeasImpl::kCsr, options.base.cancel);
      if (!sol.feasible || !g.check_legal(sol.r).empty()) {
        run.error = "windowed retiming: global fallback infeasible";
        return;
      }
      labels = sol.r;
    }
    phi = global.period(labels);
  }
  if (!implemented) {
    run.error = "relocation failed after max attempts";
    return;
  }
  counters["mcretime.moved_layers"] +=
      static_cast<double>(moved_layers(mcg, labels));
  {
    Span span(&tracer, "mcretime.rebuild");
    // retime_windowed's register_estimate, then the rebuild.
    (void)global.shared_register_area(labels);
    run.retimed = rebuild_netlist(relocated, input);
  }
  run.labels = std::move(labels);
  run.graph = std::move(global);
  run.success = true;
}

/// Traced flow for one design: the same steps as run_public, layer by layer.
DesignRun run_traced(Kind kind, const Design& design, std::size_t jobs,
                     Tracer& tracer, Counters& counters) {
  DesignRun run;
  if (kind == Kind::kPaperFlow) {
    run.before = front_end(*design.input, &tracer);
  } else {
    run.before = *design.input;
  }
  if (kind == Kind::kWindowed) {
    traced_windowed(run.before, windowed_options(jobs), tracer, counters, run);
  } else {
    traced_mc_retime(run.before, retime_options(design), tracer, counters, run);
  }
  if (!run.success) return run;
  if (kind == Kind::kPaperFlow) {
    FlowMapResult remapped = map_luts(run.retimed, &tracer);
    counters["tech.depth"] += remapped.depth;
    run.result = std::move(remapped.mapped);
  } else {
    run.result = run.retimed;
  }
  return run;
}

// --- Output checks -----------------------------------------------------------

struct Verdict {
  bool ok = true;
  std::string why;
  std::size_t defined_outputs = 0;
  bool bmc_checked = false;
};

/// Strict sim equivalence plus ternary BMC to depth 8 where it fits its
/// 96-variable cap. A BMC over the cap is a skip, not a pass.
Verdict verify(const DesignRun& run, std::uint64_t seed, Tracer* tracer) {
  Verdict verdict;
  {
    Span span(tracer, "sim.equivalence");
    EquivalenceOptions options;
    // One full 64-lane word of runs: 16x the defined outputs of the
    // default 8 x 64 for about 3x its time.
    options.runs = 64;
    options.cycles = 128;
    options.seed = seed;
    const EquivalenceResult eq =
        check_sequential_equivalence(run.before, run.result, options);
    verdict.defined_outputs = eq.compared_defined_outputs;
    if (!eq.equivalent) {
      verdict.ok = false;
      verdict.why = "sim: " + eq.counterexample;
    }
  }
  {
    Span span(tracer, "verify.bmc");
    TernaryBmcOptions options;
    options.depth = 8;
    const TernaryBmcResult bmc =
        check_ternary_bmc(run.before, run.result, options);
    switch (bmc.verdict) {
      case TernaryBmcResult::Verdict::kEquivalentUpToDepth:
        verdict.bmc_checked = true;
        break;
      case TernaryBmcResult::Verdict::kMismatch:
        verdict.bmc_checked = true;
        verdict.ok = false;
        verdict.why += "bmc: " + bmc.detail;
        break;
      case TernaryBmcResult::Verdict::kUnsupported:
      case TernaryBmcResult::Verdict::kResourceLimit:
        break;
    }
  }
  return verdict;
}

/// Quality of one design: STA period, registers and LUTs before / after.
struct Quality {
  std::string design;
  std::int64_t period_before = 0;
  std::int64_t period_after = 0;
  std::size_t regs_before = 0;
  std::size_t regs_after = 0;
  std::size_t luts_before = 0;
  std::size_t luts_after = 0;
  // Verification strength of the design's checks.
  std::size_t defined_outputs = 0;
  bool bmc_checked = false;
};

Quality measure(const Design& design, const DesignRun& run) {
  Quality q;
  q.design = design.name;
  q.period_before = compute_period(run.before);
  q.period_after = compute_period(run.result);
  q.regs_before = run.before.register_count();
  q.regs_after = run.result.register_count();
  q.luts_before = run.before.stats().luts;
  q.luts_after = run.result.stats().luts;
  return q;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- The run -----------------------------------------------------------------

/// Everything one pass over the workload's designs yields.
struct PassResult {
  double flow_s = 0;
  double cpu_s = 0;
  double verify_s = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Quality> quality;
  Counters counters;
  std::uint64_t digest = 1469598103934665603ull;
  // Traced runs only:
  /// Untraced windowed-s16k only: per design, the labels of a design that
  /// passed its other checks (empty if it failed them).
  std::vector<std::vector<std::int64_t>> labels;
  std::vector<std::string> retimed_blif;   ///< per design
  std::map<std::string, double> layers;    ///< layer span totals
  double traced_s = 0;                     ///< sum of the design spans
};

/// Deterministic quality metrics of a pass (identical on every pass).
Json quality_json(const std::vector<Quality>& quality, std::size_t failed,
                  std::size_t attempted) {
  std::vector<double> period;
  std::vector<double> regs;
  std::vector<double> luts;
  for (const Quality& q : quality) {
    period.push_back(static_cast<double>(q.period_after) /
                     static_cast<double>(q.period_before));
    regs.push_back(static_cast<double>(q.regs_after) /
                   static_cast<double>(q.regs_before));
    luts.push_back(static_cast<double>(q.luts_after) /
                   static_cast<double>(q.luts_before));
  }
  Json out = Json::object();
  const bool any = !quality.empty();
  out.set("period_ratio", any ? geomean(period) : 0.0);
  out.set("register_ratio", any ? geomean(regs) : 0.0);
  out.set("lut_ratio", any ? geomean(luts) : 0.0);
  out.set("pass_ratio", 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(attempted));
  return out;
}

/// Layer spans reported as `<layer>_s`, and counters, in report order.
/// Layers a workload does not run read 0.
constexpr const char* kLayers[] = {
    "transform.decompose_sync", "transform.sweep",
    "tech.flowmap",             "mcretime.build_graph",
    "mcretime.bounds",          "mcretime.sharing",
    "mcretime.lower",           "mcretime.relocate",
    "mcretime.rebuild",         "retime.minperiod",
    "retime.period_constraints", "retime.bounded_feasible",
    "retime.minarea",           "sim.equivalence",
    "verify.bmc",               "window.partition",
    "window.retime",
};
constexpr const char* kCounters[] = {
    "tech.depth",
    "mcretime.mc_vertices",
    "mcretime.classes",
    "mcretime.possible_steps",
    "mcretime.bounds_capped",
    "mcretime.separators",
    "mcretime.local_justifications",
    "mcretime.global_justifications",
    "mcretime.attempts",
    "mcretime.moved_layers",
    "retime.period_constraints",
    "retime.minarea_area",
    "sim.defined_outputs",
    "verify.bmc_checked",
    "verify.bmc_skipped",
    "window.windows",
    "window.cut_edges",
    "window.resolves",
    "window.global_fallbacks",
    "window.timeouts",
};
/// Share of a traced pass the layer spans must cover.
constexpr double kMinCoverage = 0.95;

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
/// event per span, nested workload -> design -> layer through `parent`.
bool write_trace(const std::string& path, const Tracer& tracer,
                 const char* workload) {
  Json events = Json::array();
  for (const Tracer::Event& e : tracer.events()) {
    Json event = Json::object();
    event.set("name", e.name);
    event.set("cat", e.parent == 0 ? "workload" : "span");
    event.set("ph", "X");
    event.set("ts", e.start * 1e6);
    event.set("dur", e.dur * 1e6);
    event.set("pid", 1);
    event.set("tid", 1);
    Json span_args = Json::object();
    span_args.set("id", e.id);
    span_args.set("parent", e.parent);
    event.set("args", span_args);
    events.push_back(event);
  }
  Json doc = Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  Json meta = Json::object();
  meta.set("workload", workload);
  meta.set("version", version_line());
  doc.set("otherData", meta);
  std::ofstream out(path);
  out << doc.write() << '\n';
  return static_cast<bool>(out);
}

int run_main(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Kind kind = spec->kind;

  // Provenance guard: timings from Debug or sanitizer builds are not
  // comparable with the recorded ones.
  const std::string build = build_type();
  if (build == "Debug" || !sanitizer_flags().empty()) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to benchmark a %s build%s\n",
                 build.c_str(),
                 sanitizer_flags().empty() ? "" : " with sanitizers");
    return 3;
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t jobs =
      args.jobs > 0 ? args.jobs : std::min<std::size_t>(4, nproc);

  // --- Set-up: generate the inputs in batches, one before the first pass
  // and one after every design of every pass; keep each batch's median and
  // report the fastest batch. generate() is allocation-bound and takes
  // milliseconds: on a shared host its speed swings by up to 1.8x with the
  // neighbours' load, in states that last seconds, so one batch sees one
  // state. The fastest batch is the least disturbed one. A median over all
  // samples follows the share of disturbed batches, which moved the median
  // of ten runs by up to 54% between two sets of runs. ---------------------
  std::vector<double> setup_batches;
  const auto setup_batch = [&] {
    std::vector<double> times;
    const Clock::time_point batch_start = Clock::now();
    while (times.size() < 3 ||
           (times.size() < 100 && seconds_since(batch_start) < 0.1)) {
      const Clock::time_point start = Clock::now();
      const std::vector<Design> generated = generate(kind);
      times.push_back(seconds_since(start));
    }
    setup_batches.push_back(median(times));
  };
  setup_batch();
  const std::vector<Design> designs = generate(kind);

  Tracer tracer;
  tracer.open(spec->name);

  // The traced run's reference: one pass of the public flow, untimed.
  std::vector<std::string> reference;
  if (args.trace) {
    for (const Design& design : designs) {
      const DesignRun run = run_public(kind, design, jobs);
      reference.push_back(run.success ? write_blif_string(run.retimed)
                                      : std::string());
    }
  }

  // retime_windowed returns its labels; the untraced run keeps them and
  // checks them once the passes are done.
  const bool keep_labels = kind == Kind::kWindowed && !args.trace;

  const auto one_pass = [&](bool traced) {
    PassResult pass;
    tracer.layer_seconds.clear();
    for (const Design& design : designs) {
      if (traced) tracer.open(design.name);
      const Clock::time_point flow_start = Clock::now();
      const double cpu_start = cpu_seconds();
      DesignRun run = traced ? run_traced(kind, design, jobs, tracer,
                                          pass.counters)
                             : run_public(kind, design, jobs);
      pass.cpu_s += cpu_seconds() - cpu_start;
      pass.flow_s += seconds_since(flow_start);
      Verdict verdict;
      if (run.success) {
        const Clock::time_point verify_start = Clock::now();
        verdict = verify(run, args.seed, traced ? &tracer : nullptr);
        pass.verify_s += seconds_since(verify_start);
      }
      if (traced) pass.traced_s += tracer.close();

      // Checks and bookkeeping outside the timed region.
      std::string failure;
      if (!run.success) {
        failure = "flow failed: " + run.error;
      } else if (!verdict.ok) {
        failure = verdict.why;
      } else if (traced && !run.graph.check_legal(run.labels).empty()) {
        failure = "illegal labels: " + run.graph.check_legal(run.labels);
      }
      if (keep_labels) {
        pass.labels.push_back(failure.empty() ? std::move(run.labels)
                                              : std::vector<std::int64_t>());
      }
      if (run.success) {
        const std::string blif = write_blif_string(run.result);
        pass.digest = fnv1a(blif, pass.digest);
        if (traced) pass.retimed_blif.push_back(write_blif_string(run.retimed));
        pass.quality.push_back(measure(design, run));
        pass.quality.back().defined_outputs = verdict.defined_outputs;
        pass.quality.back().bmc_checked = verdict.bmc_checked;
      } else if (traced) {
        pass.retimed_blif.emplace_back();
      }
      pass.counters["sim.defined_outputs"] +=
          static_cast<double>(verdict.defined_outputs);
      pass.counters[verdict.bmc_checked ? "verify.bmc_checked"
                                        : "verify.bmc_skipped"] += 1;
      if (!failure.empty()) {
        ++pass.failed;
        pass.failures.push_back(design.name + ": " + failure);
      }
      setup_batch();
    }
    pass.layers = tracer.layer_seconds;
    return pass;
  };

  // --- Timed passes: until the run's time is used, and at least two, so
  // every median spans more than one sample and the traced counters are
  // checked for repeatability. ----------------------------------------------
  std::vector<PassResult> passes;
  double rss_mb = 0;
  const Clock::time_point run_start = Clock::now();
  do {
    passes.push_back(one_pass(args.trace));
    // Peak of set-up plus one pass, as a fresh process running the
    // workload once would see it: later passes can raise the peak through
    // allocator fragmentation, which would make it depend on pass count.
    if (passes.size() == 1) rss_mb = peak_rss_mb();
  } while (passes.size() < kMinPasses ||
           seconds_since(run_start) < args.seconds);
  tracer.close();
  const double setup_s =
      *std::min_element(setup_batches.begin(), setup_batches.end());

  // --- Kept labels: legal on the lowered global graph. It is built only now,
  // so it counts toward neither the timed passes nor peak_rss_mb. ----------
  if (keep_labels) {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      const McPrepared prepared =
          prepare_mc_graph(*designs[i].input, windowed_options(jobs).base);
      const RetimeGraph graph =
          lower_to_retime_graph(prepared.graph, prepared.bounds);
      for (PassResult& pass : passes) {
        if (pass.labels[i].empty()) continue;
        const std::string legal = graph.check_legal(pass.labels[i]);
        if (!legal.empty()) {
          ++pass.failed;
          pass.failures.push_back(designs[i].name + ": illegal labels: " +
                                  legal);
        }
      }
    }
  }

  // --- Correctness: every pass agrees, nothing failed, replica identical. --
  const PassResult& first = passes.front();
  const std::size_t attempted = designs.size() * passes.size();
  std::size_t failed = 0;
  std::vector<std::string> problems;
  const std::string quality =
      quality_json(first.quality, first.failed, designs.size()).write();
  for (const PassResult& pass : passes) {
    failed += pass.failed;
    for (const std::string& f : pass.failures) problems.push_back(f);
    if (pass.digest != first.digest || pass.counters != first.counters ||
        quality_json(pass.quality, pass.failed, designs.size()).write() !=
            quality) {
      problems.push_back("passes disagree: the flow is not deterministic");
    }
  }
  if (args.trace) {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (first.retimed_blif[i] != reference[i]) {
        problems.push_back(designs[i].name +
                           ": traced replica differs from the public flow");
      }
    }
  }

  Json metrics = Json::object();
  const auto per_pass = [&](double PassResult::*field) {
    std::vector<double> values;
    for (const PassResult& pass : passes) values.push_back(pass.*field);
    return median(values);
  };
  if (!args.trace) {
    metrics.set("setup_s", setup_s);
    metrics.set("flow_s", per_pass(&PassResult::flow_s));
    metrics.set("cpu_s", per_pass(&PassResult::cpu_s));
    metrics.set("verify_s", per_pass(&PassResult::verify_s));
    metrics.set("peak_rss_mb", rss_mb);
    // pass_ratio counts every pass, as `failed` and `attempted` do.
    const Json ratios = quality_json(first.quality, failed, attempted);
    for (const auto& [key, value] : ratios.as_object()) metrics.set(key, value);
  } else {
    // Layer times: median over passes; counters: pass one (checked equal).
    metrics.set("workload.generate_s", setup_s);
    for (const char* layer : kLayers) {
      std::vector<double> values;
      for (const PassResult& pass : passes) {
        const auto it = pass.layers.find(layer);
        values.push_back(it == pass.layers.end() ? 0.0 : it->second);
      }
      metrics.set(std::string(layer) + "_s", median(values));
    }
    for (const char* counter : kCounters) {
      const auto it = first.counters.find(counter);
      metrics.set(counter, it == first.counters.end() ? 0.0 : it->second);
    }
    std::vector<double> coverage;
    for (const PassResult& pass : passes) {
      double spans = 0;
      for (const auto& [layer, seconds] : pass.layers) spans += seconds;
      coverage.push_back(spans / pass.traced_s);
    }
    metrics.set("trace.pass_s", per_pass(&PassResult::traced_s));
    metrics.set("trace.coverage", median(coverage));
    if (median(coverage) < kMinCoverage) {
      problems.push_back("trace coverage below 0.95: time goes unattributed");
    }
    if (!args.trace_out.empty() &&
        !write_trace(args.trace_out, tracer, spec->name)) {
      problems.push_back("cannot write trace file " + args.trace_out);
    }
  }

  Json report = Json::object();
  Json provenance = Json::object();
  provenance.set("workload", spec->name);
  provenance.set("seed", static_cast<std::int64_t>(args.seed));
  provenance.set("nproc", nproc);
  provenance.set("jobs", jobs);
  provenance.set("build_type", build);
  provenance.set("version", version_line());
  provenance.set("trace", args.trace);
  report.set("provenance", provenance);
  report.set("correct", problems.empty());
  report.set("attempted", attempted);
  report.set("failed", failed);
  report.set("passes", passes.size());
  Json samples = Json::object();
  const auto add_samples = [&](const char* name, double PassResult::*field) {
    Json values = Json::array();
    for (const PassResult& pass : passes) values.push_back(pass.*field);
    samples.set(name, values);
  };
  add_samples("flow_s", &PassResult::flow_s);
  add_samples("cpu_s", &PassResult::cpu_s);
  add_samples("verify_s", &PassResult::verify_s);
  if (args.trace) add_samples("trace.pass_s", &PassResult::traced_s);
  report.set("samples", samples);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.digest));
  report.set("digest", digest);
  Json rows = Json::array();
  for (const Quality& q : first.quality) {
    Json row = Json::object();
    row.set("name", q.design);
    row.set("period_before", q.period_before);
    row.set("period_after", q.period_after);
    row.set("registers_before", q.regs_before);
    row.set("registers_after", q.regs_after);
    row.set("luts_before", q.luts_before);
    row.set("luts_after", q.luts_after);
    row.set("defined_outputs", q.defined_outputs);
    row.set("bmc", q.bmc_checked ? "checked" : "skipped");
    rows.push_back(row);
  }
  report.set("designs", rows);
  Json problem_list = Json::array();
  for (const std::string& p : problems) problem_list.push_back(p);
  report.set("problems", problem_list);
  report.set("metrics", metrics);
  std::printf("%s\n", report.write().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
