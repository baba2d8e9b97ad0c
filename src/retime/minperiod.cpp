#include "retime/minperiod.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "retime/feas.h"
#include "retime/period_constraints.h"

namespace mcrt {
namespace {

std::vector<std::int64_t> normalize_to_host(std::vector<std::int64_t> r,
                                            const RetimeGraph& graph) {
  const std::int64_t base = r[graph.host().index()];
  if (base != 0) {
    for (auto& value : r) value -= base;
  }
  return r;
}

}  // namespace

std::optional<std::vector<std::int64_t>> bounded_feasible(
    const RetimeGraph& graph, std::int64_t phi,
    const std::vector<DifferenceConstraint>* cached_period_constraints,
    const CancelToken* cancel) {
  std::vector<DifferenceConstraint> constraints;
  generate_circuit_constraints(graph, constraints);
  if (cached_period_constraints) {
    constraints.insert(constraints.end(), cached_period_constraints->begin(),
                       cached_period_constraints->end());
  } else {
    generate_period_constraints(graph, phi, constraints, cancel);
  }
  auto solution =
      solve_difference_constraints(graph.vertex_count(), constraints);
  if (!solution) return std::nullopt;
  auto r = normalize_to_host(std::move(*solution), graph);
  // Defensive: the labels must actually realize phi (guards against any
  // constraint-generation gap turning into silent wrong answers).
  if (graph.period(r) > phi) return std::nullopt;
  return r;
}

RetimeSolution minperiod_retime(const RetimeGraph& graph,
                                const CancelToken* cancel) {
  RetimeSolution result;
  result.feasible = true;
  // Feasibility is monotone in phi, and no period beats the slowest single
  // vertex, so an integer binary search over [max d(v), current period]
  // with bounded FEAS as the oracle ends exactly at the optimum. The
  // current period is feasible with r = 0 (bounds admit 0 by construction).
  const std::span<const std::int64_t> delay = graph.delays();
  std::int64_t lo = *std::max_element(delay.begin(), delay.end());
  std::int64_t hi = graph.period();
  std::optional<std::vector<std::int64_t>> best;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (auto r = feas_check(graph, mid, cancel)) {
      best = std::move(r);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.period = hi;
  if (!best) {
    result.r.assign(graph.vertex_count(), 0);  // already optimal
  } else if (!graph.has_bounds()) {
    result.r = std::move(*best);
  } else {
    // On bounded graphs the labels are the constraint solve's at the
    // optimum (its shortest-path potential); FEAS only decides the period.
    auto r = bounded_feasible(graph, hi, nullptr, cancel);
    if (!r) {
      throw std::logic_error("minperiod: FEAS accepts phi=" +
                             std::to_string(hi) +
                             " but the constraint solve rejects it");
    }
    result.r = std::move(*r);
  }
  return result;
}

}  // namespace mcrt
