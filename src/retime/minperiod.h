// Minimum-period retiming (paper §5.1, Step 4).
//
// An integer binary search over [max d(v), current period] with bounded
// FEAS (feas.h) as the feasibility oracle: the optimum is a path delay and
// FEAS decides "a legal, bounded retiming of period <= phi exists"
// exactly, with and without the §4.1 class bounds, so no candidate-period
// list and no W/D constraint generation is needed per probe. Infeasible
// probes usually end in their first round (a parent cycle). On a bounded
// graph the labels at the optimum come from one bounded_feasible() call.
#pragma once

#include <optional>
#include <vector>

#include "base/cancel.h"
#include "retime/retime_graph.h"

namespace mcrt {

/// Computes the minimum feasible clock period and a retiming achieving it,
/// assuming the current period is feasible with r = 0. The labels are
/// normalized to r(host) = 0:
///  - bound-free graph: FEAS's labels at the optimum;
///  - current period already optimal: r = 0;
///  - otherwise: bounded_feasible(graph, optimum).
/// They are legal w.r.t. the bounds whenever the bounds admit r = 0. When
/// they do not (windowed retries tighten past the current label) and
/// nothing beats the current period, the returned r = 0 violates them:
/// callers check legality (windowed_retime.cpp's solve_window does).
/// `feasible` is always true. `cancel` (may be null) is polled once per
/// FEAS round and inside constraint generation, so one oversized
/// monolithic solve cannot stall a batch or a window deadline.
RetimeSolution minperiod_retime(const RetimeGraph& graph,
                                const CancelToken* cancel = nullptr);

/// Names the FEAS engine. There is one; this overload stays because
/// perfbench/harness.cpp, kept unchanged so benchmark runs stay comparable
/// across versions, calls minperiod_retime(g, FeasImpl::kCsr[, cancel]).
enum class FeasImpl { kCsr };
inline RetimeSolution minperiod_retime(const RetimeGraph& graph, FeasImpl,
                                       const CancelToken* cancel = nullptr) {
  return minperiod_retime(graph, cancel);
}

/// Feasibility check honoring bounds through the difference-constraint
/// system (circuit, bound and W/D period constraints, SPFA): is there a
/// legal retiming with period <= phi? Returns the labels if so. An
/// optional cache of the period constraints for phi avoids recomputing the
/// all-pairs paths. It serves target periods, min-area, the labels at the
/// min-period optimum, and is FEAS's independent oracle.
std::optional<std::vector<std::int64_t>> bounded_feasible(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<struct DifferenceConstraint>*
        cached_period_constraints = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace mcrt
