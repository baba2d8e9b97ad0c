// Period-constraint generation from the W/D path matrices.
//
// For a target period phi, retiming must place a register on every path
// with delay exceeding phi, which yields difference constraints
//
//     r(u) - r(v) <= W(u,v) - 1      whenever D(u,v) > phi,
//
// where W(u,v) is the minimum path weight u ~> v and D(u,v) the maximum
// delay among minimum-weight paths. This module runs one Dijkstra per
// source (for W) plus a longest-path pass over its tight edges (for D) and
// emits the constraints, applying the Shenoy-Rudell pruning: the pair
// (u,v) is emitted only if it is *minimally violating*, i.e.
// D(u,v) - d(u) <= phi and D(u,v) - d(v) <= phi; dominated pairs are
// implied by the emitted constraint of an interior pair plus circuit
// constraints, so dropping them preserves the feasible set while shrinking
// the system drastically.
//
// The constraints serve target periods, min-area, the labels at the
// min-period optimum and FEAS's independent oracle (bounded_feasible in
// minperiod.h). Min-period's probes never generate them: bounded FEAS
// (feas.h) decides each probe.
#pragma once

#include <cstdint>
#include <vector>

#include "base/cancel.h"
#include "graph/difference_constraints.h"
#include "retime/retime_graph.h"

namespace mcrt {

/// W/D labels from one source vertex. weight[v] = W(source, v), delay[v] =
/// D(source, v) for reached vertices. The host is sink-only (its out-edges
/// close the environment loop and are not combinational paths).
struct WdLabels {
  std::vector<std::int64_t> weight;
  std::vector<std::int64_t> delay;
  std::vector<bool> reached;
};

/// One Dijkstra (for W) plus a longest-path DP over the tight-edge DAG
/// (for D = max delay among minimum-weight paths).
WdLabels compute_wd_from_source(const RetimeGraph& graph, VertexId source);

/// Appends the pruned period constraints for `phi` to `out` (variable ids =
/// vertex indices). `cancel` (may be null) is polled once per path source:
/// the generation is one Dijkstra per vertex, the quadratic-ish cost that
/// dominates large monolithic solves, so it must be interruptible.
void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel = nullptr);

/// Reference generator: every pair with D(u,v) > phi, no pruning. Same
/// feasible set as the pruned generator (that is the pruning's correctness
/// claim, and tests cross-check the two); quadratically larger output.
void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out);

/// All distinct D(u,v) values (candidate clock periods), sorted ascending.
/// Includes single-vertex "paths" (d(v) alone). One Dijkstra per source;
/// each source's delays are deduplicated and merged into the running set,
/// so memory is O(distinct periods + V). Min-period no longer needs the
/// list (it binary-searches integers with FEAS); `mcrt bench`'s probe
/// schedule and the FEAS differential test use it. `cancel` is polled once
/// per path source.
std::vector<std::int64_t> candidate_periods(const RetimeGraph& graph,
                                            const CancelToken* cancel =
                                                nullptr);

/// Circuit constraints r(u) - r(v) <= w(e) for every edge, plus bound
/// constraints through the host vertex if the graph has bounds.
void generate_circuit_constraints(const RetimeGraph& graph,
                                  std::vector<DifferenceConstraint>& out);

}  // namespace mcrt
