#include "retime/period_constraints.h"

#include <algorithm>
#include <iterator>
#include <queue>
#include <stdexcept>

#include "graph/topo.h"

namespace mcrt {

/// Per-source W/D computation. W(source, v) is an ordinary Dijkstra over
/// edge weights; D(source, v), the maximum delay among *minimum-weight*
/// paths, then falls out of a longest-path DP over the "tight" subgraph
/// (edges with W[to] == W[from] + w(e)), which is a DAG because a tight
/// cycle would be a zero-weight cycle. A naive lexicographic Dijkstra with
/// a max-delay tiebreak is NOT correct here: along zero-weight edges a
/// low-delay vertex can settle before a higher-delay predecessor.
///
/// The host vertex is sink-only in all path computations: its out-edges
/// close the environment loop (PO -> host -> PI) and do not correspond to
/// combinational paths, so they are never relaxed.
WdLabels compute_wd_from_source(const RetimeGraph& graph, VertexId source) {
  const std::size_t n = graph.vertex_count();
  const Digraph& g = graph.digraph();
  WdLabels labels;
  labels.weight.assign(n, 0);
  labels.delay.assign(n, 0);
  labels.reached.assign(n, false);

  // Phase 1: W via Dijkstra.
  using Item = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  labels.weight[source.index()] = 0;
  labels.reached[source.index()] = true;
  heap.push({0, source.value()});
  while (!heap.empty()) {
    const auto [w, v] = heap.top();
    heap.pop();
    if (w != labels.weight[v]) continue;
    if (VertexId{v} == graph.host()) continue;  // host is sink-only
    for (const EdgeId e : g.out_edges(VertexId{v})) {
      const std::uint32_t to = g.to(e).value();
      const std::int64_t cand = w + graph.weight(e);
      if (!labels.reached[to] || cand < labels.weight[to]) {
        labels.reached[to] = true;
        labels.weight[to] = cand;
        heap.push({cand, to});
      }
    }
  }

  // Phase 2: D via longest path over tight edges reachable from source.
  auto tight = [&](EdgeId e) {
    const std::uint32_t from = g.from(e).value();
    const std::uint32_t to = g.to(e).value();
    return VertexId{from} != graph.host() && labels.reached[from] &&
           labels.reached[to] &&
           labels.weight[to] == labels.weight[from] + graph.weight(e);
  };
  const auto order = topological_order(g, tight);
  if (!order) {
    // A tight cycle is a zero-weight cycle: illegal input graph.
    throw std::logic_error("retime: zero-weight cycle in W/D computation");
  }
  constexpr std::int64_t kUnreached = -1;
  std::vector<std::int64_t> dp(n, kUnreached);
  dp[source.index()] = graph.delay(source);
  for (const VertexId v : *order) {
    if (dp[v.index()] == kUnreached && v != source) {
      // Max over tight in-edges whose tail is on a tight source path.
      std::int64_t best = kUnreached;
      for (const EdgeId e : g.in_edges(v)) {
        if (!tight(e)) continue;
        const std::int64_t from_dp = dp[g.from(e).index()];
        if (from_dp != kUnreached) {
          best = std::max(best, from_dp + graph.delay(v));
        }
      }
      dp[v.index()] = best;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!labels.reached[v]) continue;
    // Every Dijkstra-reached vertex has a tight path from the source (the
    // shortest-path tree is tight), so dp is defined here.
    labels.delay[v] = dp[v];
  }
  return labels;
}

void generate_period_constraints(const RetimeGraph& graph, std::int64_t phi,
                                 std::vector<DifferenceConstraint>& out,
                                 const CancelToken* cancel) {
  const std::size_t n = graph.vertex_count();
  for (std::size_t u = 1; u < n; ++u) {  // host is never a path source
    poll_cancel(cancel);
    const VertexId source{static_cast<std::uint32_t>(u)};
    // A pair (u, v) can only be minimally violating if removing d(u) brings
    // the delay to phi or below; sources whose own delay already exceeds
    // phi make phi trivially infeasible - emit an unsatisfiable constraint.
    const WdLabels labels = compute_wd_from_source(graph, source);
    for (std::size_t v = 0; v < n; ++v) {
      if (!labels.reached[v] || v == u) continue;
      const std::int64_t d = labels.delay[v];
      if (d <= phi) continue;
      // Shenoy-Rudell pruning: only minimally violating pairs.
      if (d - graph.delay(source) > phi) continue;
      if (d - graph.delay(VertexId{static_cast<std::uint32_t>(v)}) > phi) {
        continue;
      }
      // Maheshwari-Sapatnekar bound pruning (the refinement §5.1 of the
      // paper anticipates): the class bounds already imply
      // r(u) - r(v) <= upper(u) - lower(v); if that is at most W-1 the
      // period constraint is redundant.
      const std::int64_t upper_u =
          graph.upper_bound(VertexId{static_cast<std::uint32_t>(u)});
      const std::int64_t lower_v =
          graph.lower_bound(VertexId{static_cast<std::uint32_t>(v)});
      if (upper_u < RetimeGraph::kNoBound &&
          lower_v > -RetimeGraph::kNoBound &&
          upper_u - lower_v <= labels.weight[v] - 1) {
        continue;
      }
      out.push_back({static_cast<std::uint32_t>(u),
                     static_cast<std::uint32_t>(v), labels.weight[v] - 1});
    }
  }
  // Single-vertex "paths": a gate slower than phi alone is infeasible.
  for (std::size_t v = 1; v < n; ++v) {
    if (graph.delay(VertexId{static_cast<std::uint32_t>(v)}) > phi) {
      // r(v) - r(v) <= -1: unsatisfiable marker.
      out.push_back({static_cast<std::uint32_t>(v),
                     static_cast<std::uint32_t>(v), -1});
    }
  }
}

void generate_period_constraints_unpruned(
    const RetimeGraph& graph, std::int64_t phi,
    std::vector<DifferenceConstraint>& out) {
  const std::size_t n = graph.vertex_count();
  for (std::size_t u = 1; u < n; ++u) {
    const WdLabels labels =
        compute_wd_from_source(graph, VertexId{static_cast<std::uint32_t>(u)});
    for (std::size_t v = 0; v < n; ++v) {
      if (!labels.reached[v] || v == u) continue;
      if (labels.delay[v] <= phi) continue;
      out.push_back({static_cast<std::uint32_t>(u),
                     static_cast<std::uint32_t>(v), labels.weight[v] - 1});
    }
  }
  for (std::size_t v = 1; v < n; ++v) {
    if (graph.delay(VertexId{static_cast<std::uint32_t>(v)}) > phi) {
      out.push_back({static_cast<std::uint32_t>(v),
                     static_cast<std::uint32_t>(v), -1});
    }
  }
}

std::vector<std::int64_t> candidate_periods(const RetimeGraph& graph,
                                            const CancelToken* cancel) {
  std::vector<std::int64_t> values;  // sorted, distinct
  std::vector<std::int64_t> source_values;
  std::vector<std::int64_t> merged;
  const std::size_t n = graph.vertex_count();
  for (std::size_t u = 1; u < n; ++u) {
    poll_cancel(cancel);
    const WdLabels labels =
        compute_wd_from_source(graph, VertexId{static_cast<std::uint32_t>(u)});
    source_values.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (labels.reached[v]) source_values.push_back(labels.delay[v]);
    }
    std::sort(source_values.begin(), source_values.end());
    source_values.erase(
        std::unique(source_values.begin(), source_values.end()),
        source_values.end());
    merged.clear();
    std::set_union(values.begin(), values.end(), source_values.begin(),
                   source_values.end(), std::back_inserter(merged));
    values.swap(merged);
  }
  return values;
}

void generate_circuit_constraints(const RetimeGraph& graph,
                                  std::vector<DifferenceConstraint>& out) {
  const Digraph& g = graph.digraph();
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId id{static_cast<std::uint32_t>(e)};
    out.push_back({g.from(id).value(), g.to(id).value(), graph.weight(id)});
  }
  if (!graph.has_bounds()) return;
  const std::uint32_t host = graph.host().value();
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    const VertexId vid{static_cast<std::uint32_t>(v)};
    if (vid == graph.host()) continue;
    const std::int64_t upper = graph.upper_bound(vid);
    const std::int64_t lower = graph.lower_bound(vid);
    if (upper < RetimeGraph::kNoBound) {
      out.push_back({vid.value(), host, upper});
    }
    if (lower > -RetimeGraph::kNoBound) {
      out.push_back({host, vid.value(), -lower});
    }
  }
}

}  // namespace mcrt
