#include "mcretime/mc_retime.h"

#include <algorithm>

#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mcgraph.h"
#include "mcretime/rebuild.h"
#include "mcretime/sharing.h"
#include "retime/minarea.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"

namespace mcrt {

McPrepared prepare_mc_graph(const Netlist& input,
                            const McRetimeOptions& options) {
  McPrepared prepared;
  prepared.graph = build_mc_graph(input, options.class_options);
  auto maximal = compute_mc_bounds(prepared.graph);
  prepared.bounds = std::move(maximal.bounds);
  prepared.num_classes = prepared.graph.classes().class_count();
  prepared.possible_steps = prepared.bounds.possible_steps;
  if (options.sharing_modification &&
      options.objective == McRetimeOptions::Objective::kMinAreaMinPeriod) {
    auto modified = apply_sharing_modification(prepared.graph, prepared.bounds,
                                               maximal.backward_graph);
    prepared.graph = std::move(modified.graph);
    prepared.bounds = std::move(modified.bounds);
    prepared.separators = modified.separators_inserted;
  }
  return prepared;
}

McRetimeResult mc_retime(const Netlist& input, const McRetimeOptions& options) {
  McRetimeResult result;
  McRetimeStats& stats = result.stats;
  stats.registers_before = input.register_count();

  // --- Steps 1-3: mc-graph, bounds, sharing modification -------------------
  McGraph graph;
  McBounds bounds;
  {
    ScopedPhase phase(stats.profile, "graph");
    McPrepared prepared = prepare_mc_graph(input, options);
    graph = std::move(prepared.graph);
    bounds = std::move(prepared.bounds);
    stats.num_classes = prepared.num_classes;
    stats.possible_steps = prepared.possible_steps;
    stats.separators = prepared.separators;
  }

  // Bound overrides accumulated from justification failures.
  BoundOverlay tightened_upper;
  BoundOverlay tightened_lower;

  McGraph relocated;
  std::vector<std::int64_t> labels;
  bool implemented = false;
  // Across justification-failure retries the target period usually stays
  // valid: keep it (and its expensive period-constraint set) unless the new
  // bound makes it infeasible.
  std::int64_t phi = -1;
  std::vector<DifferenceConstraint> period_constraints;
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    poll_cancel(options.cancel);
    stats.attempts = attempt + 1;
    // --- Steps 4-5: solve ----------------------------------------------------
    {
      ScopedPhase phase(stats.profile, "retime");
      RetimeGraph basic = lower_to_retime_graph(graph, bounds);
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
      stats.period_before = basic.period();
      bool have_labels = false;
      if (phi < 0 && options.target_period > 0) {
        // Try the requested target first; fall back to minimization if it
        // is below the minimum feasible period.
        std::vector<DifferenceConstraint> target_constraints;
        generate_period_constraints(basic, options.target_period,
                                    target_constraints, options.cancel);
        if (auto r = bounded_feasible(basic, options.target_period,
                                      &target_constraints)) {
          labels = std::move(*r);
          phi = options.target_period;
          period_constraints = std::move(target_constraints);
          have_labels = true;
        }
      }
      if (!have_labels && phi >= 0) {
        if (auto r = bounded_feasible(basic, phi, &period_constraints)) {
          labels = std::move(*r);
          have_labels = true;
        }
      }
      if (!have_labels) {
        const RetimeSolution minperiod =
            minperiod_retime(basic, options.cancel);
        if (!minperiod.feasible) {
          result.error = "minperiod retiming infeasible";
          return result;
        }
        labels = minperiod.r;
        phi = minperiod.period;
        period_constraints.clear();
        generate_period_constraints(basic, phi, period_constraints,
                                    options.cancel);
      }
      stats.period_after = phi;
      if (options.objective ==
          McRetimeOptions::Objective::kMinAreaMinPeriod) {
        const MinAreaResult minarea =
            minarea_retime(basic, phi, &period_constraints, options.cancel);
        if (minarea.feasible) {
          labels = minarea.r;
        }
        // Infeasible minarea (should not happen) falls back to the
        // feasible labels computed above.
      }
      stats.register_estimate = basic.shared_register_area(labels);
    }
    // --- Step 6: implement ----------------------------------------------------
    {
      ScopedPhase phase(stats.profile, "implement");
      relocated = graph;
      const RelocateResult relocation = relocate_registers(
          relocated, input, labels, options.global_justification_budget);
      stats.relocate = relocation.stats;
      if (relocation.success) {
        implemented = true;
        break;
      }
      // Tighten the bound at the offending vertex and recompute.
      result.error =
          tighten_failed_bound(relocation, tightened_upper, tightened_lower);
      if (!result.error.empty()) return result;
    }
  }
  if (!implemented) {
    result.error = "relocation failed after max attempts";
    return result;
  }

  stats.moved_layers = moved_layer_count(graph, labels);

  {
    ScopedPhase phase(stats.profile, "implement");
    result.netlist = rebuild_netlist(relocated, input);
  }
  stats.registers_after = result.netlist.register_count();
  result.success = true;
  return result;
}

}  // namespace mcrt
