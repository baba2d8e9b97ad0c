#include "retime/feas.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcrt {
namespace {

constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

/// One FEAS probe. Every label change is a raise r(v) := r(u) + c that
/// makes a constraint r(v) >= r(u) + c valid for every legal, bounded
/// retiming of period <= phi tight, and records u as v's parent (see
/// docs/ALGORITHMS.md, "Feasibility"):
///  - timing: v arrives later than phi along a zero-weight path from
///    u = origin[v], so r(v) >= r(u) + 1 - w(path);
///  - legality: an edge or bound arc u -> v of weight w went negative, so
///    r(v) >= r(u) - w. The §4.1 bounds are the timing-free arcs
///    v -> host (weight upper(v)) and host -> v (weight -lower(v)).
/// A cycle among the parent pointers sums to a positive cycle of those
/// constraints, so phi is infeasible; while the parents stay acyclic every
/// label is at most (|V| - 1) * c_max, which bounds the run.
class FeasProbe {
 public:
  FeasProbe(const RetimeGraph& graph, std::int64_t phi,
            const CancelToken* cancel)
      : csr_(graph.csr()),
        weight_(graph.weights()),
        delay_(graph.delays()),
        n_(csr_.n),
        host_(graph.host().value()),
        phi_(phi),
        cancel_(cancel),
        r_(n_, 0),
        parent_(n_, kNoParent),
        arrival_(n_, 0),
        origin_(n_, 0),
        indegree_(n_, 0),
        queued_(n_, 0),
        walk_(n_, 0) {
    stack_.reserve(n_);
    queue_.reserve(2 * static_cast<std::size_t>(n_));
    std::int64_t c_max = 1;
    if (graph.has_bounds()) {
      upper_.assign(n_, RetimeGraph::kNoBound);
      for (std::uint32_t v = 0; v < n_; ++v) {
        if (v == host_) continue;
        const std::int64_t upper = graph.upper_bound(VertexId{v});
        const std::int64_t lower = graph.lower_bound(VertexId{v});
        if (upper < RetimeGraph::kNoBound) {
          upper_[v] = upper;
          c_max = std::max(c_max, -upper);
        }
        if (lower > -RetimeGraph::kNoBound) {
          from_host_.push_back({v, -lower});
          c_max = std::max(c_max, lower);
        }
      }
    }
    label_cap_ = saturating_mul(n_ - 1, c_max);
    round_cap_ = saturating_mul(n_, label_cap_);
  }

  std::optional<std::vector<std::int64_t>> run() {
    // r = 0 is legal for the edges; bounds that exclude it are repaired
    // before the first timing round.
    for (std::uint32_t v = 0; v < n_; ++v) enqueue(v);
    if (!repair()) return std::nullopt;
    for (std::int64_t round = 0;; ++round) {
      poll_cancel(cancel_);
      if (round > round_cap_) {
        throw std::logic_error("FEAS: round cap exceeded with acyclic parents");
      }
      if (!arrival()) throw std::logic_error("FEAS: zero-weight cycle");
      queue_.clear();
      for (std::uint32_t v = 0; v < n_; ++v) {
        if (arrival_[v] > phi_) {
          ++r_[v];
          parent_[v] = origin_[v];
          enqueue(v);
        }
      }
      if (queue_.empty()) break;  // fixed point: r realizes period <= phi
      if (!repair() || parent_cycle()) return std::nullopt;
    }
    // Normalize to r(host) = 0 (uniform shifts do not change edge weights).
    const std::int64_t base = r_[host_];
    if (base != 0) {
      for (auto& label : r_) label -= base;
    }
    // Defensive: the fixed point is legal and meets phi by construction.
    for (std::uint32_t v = 0; v < n_; ++v) {
      for (std::uint32_t i = csr_.out_offsets[v]; i < csr_.out_offsets[v + 1];
           ++i) {
        if (weight_[csr_.out_edge[i]] + r_[csr_.out_to[i]] - r_[v] < 0) {
          return std::nullopt;
        }
      }
      if (!upper_.empty() && r_[v] > upper_[v]) return std::nullopt;
    }
    for (const auto& [v, w] : from_host_) {
      if (r_[v] < -w) return std::nullopt;
    }
    if (!arrival()) throw std::logic_error("FEAS: zero-weight cycle");
    if (*std::max_element(arrival_.begin(), arrival_.end()) > phi_) {
      return std::nullopt;
    }
    return std::move(r_);
  }

 private:
  static std::int64_t saturating_mul(std::int64_t a, std::int64_t b) {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return a != 0 && b > kMax / a ? kMax : a * b;
  }

  /// Longest combinational arrival times under r_: max vertex-delay sum
  /// over paths of zero-weight retimed edges, host out-edges excluded
  /// (environment closure, not combinational paths). Matches
  /// dag_longest_path() on the same edge filter. origin_[v] is the first
  /// vertex of one path realizing arrival_[v] (v itself when no
  /// predecessor adds delay). Returns false on a zero-weight cycle.
  bool arrival() {
    auto active = [&](std::uint32_t from, std::uint32_t to, std::uint32_t e) {
      return from != host_ && weight_[e] + r_[to] - r_[from] == 0;
    };
    std::fill(indegree_.begin(), indegree_.end(), 0u);
    for (std::uint32_t v = 0; v < n_; ++v) {
      for (std::uint32_t i = csr_.in_offsets[v]; i < csr_.in_offsets[v + 1];
           ++i) {
        if (active(csr_.in_from[i], v, csr_.in_edge[i])) ++indegree_[v];
      }
    }
    stack_.clear();
    for (std::uint32_t v = 0; v < n_; ++v) {
      origin_[v] = v;
      if (indegree_[v] == 0) stack_.push_back(v);
    }
    // arrival_[v] doubles as the best finalized predecessor distance until
    // v itself is popped (all active predecessors finalized by then).
    std::fill(arrival_.begin(), arrival_.end(), 0);
    std::uint32_t processed = 0;
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back();
      stack_.pop_back();
      ++processed;
      const std::int64_t dist = arrival_[v] + delay_[v];
      arrival_[v] = dist;
      for (std::uint32_t i = csr_.out_offsets[v]; i < csr_.out_offsets[v + 1];
           ++i) {
        const std::uint32_t to = csr_.out_to[i];
        if (!active(v, to, csr_.out_edge[i])) continue;
        if (dist > arrival_[to]) {
          arrival_[to] = dist;
          origin_[to] = origin_[v];
        }
        if (--indegree_[to] == 0) stack_.push_back(to);
      }
    }
    return processed == n_;
  }

  void enqueue(std::uint32_t v) {
    if (queued_[v]) return;
    queued_[v] = 1;
    queue_.push_back(v);
  }

  void raise(std::uint32_t v, std::int64_t label, std::uint32_t cause) {
    r_[v] = label;
    parent_[v] = cause;
    enqueue(v);
    ++relaxations_;
  }

  /// Legality repair from the queued vertices: FIFO relaxation of the edge
  /// and bound arcs to their least fixed point above r. Returns false on a
  /// parent cycle, which is checked every |V| relaxations so a positive
  /// cycle among the arcs themselves (bounds no legal retiming meets)
  /// cannot spin forever.
  bool repair() {
    std::size_t head = 0;
    std::uint64_t next_check = relaxations_ + n_;
    while (head < queue_.size()) {
      const std::uint32_t u = queue_[head++];
      queued_[u] = 0;
      for (std::uint32_t i = csr_.out_offsets[u]; i < csr_.out_offsets[u + 1];
           ++i) {
        const std::uint32_t v = csr_.out_to[i];
        const std::int64_t needed = r_[u] - weight_[csr_.out_edge[i]];
        if (r_[v] < needed) raise(v, needed, u);
      }
      if (!upper_.empty() && upper_[u] < RetimeGraph::kNoBound &&
          r_[host_] < r_[u] - upper_[u]) {
        raise(host_, r_[u] - upper_[u], u);
      }
      if (u == host_) {
        for (const auto& [v, w] : from_host_) {
          if (r_[v] < r_[u] - w) raise(v, r_[u] - w, u);
        }
      }
      if (relaxations_ >= next_check) {
        if (parent_cycle()) return false;
        next_check = relaxations_ + n_;
      }
      // Compact the consumed prefix so the ring stays O(|V|).
      if (head > n_) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
    queue_.clear();
    return true;
  }

  /// True when the parent pointers contain a cycle. Acyclic parents bound
  /// every label by label_cap_; a label above it means the proof has a gap,
  /// reported as a logic_error rather than a silent wrong verdict.
  bool parent_cycle() {
    for (std::uint32_t start = 0; start < n_; ++start) {
      if (walk_[start] != 0) continue;
      const std::uint32_t id = start + 1;  // marks this walk's vertices
      std::uint32_t v = start;
      while (v != kNoParent && walk_[v] == 0) {
        walk_[v] = id;
        v = parent_[v];
      }
      if (v != kNoParent && walk_[v] == id) return true;
    }
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (r_[v] > label_cap_) {
        throw std::logic_error("FEAS: label " + std::to_string(r_[v]) +
                               " exceeds the acyclic-parent bound " +
                               std::to_string(label_cap_));
      }
    }
    std::fill(walk_.begin(), walk_.end(), 0u);
    return false;
  }

  const RetimeGraph::CsrView& csr_;
  std::span<const std::int64_t> weight_;
  std::span<const std::int64_t> delay_;
  std::uint32_t n_;
  std::uint32_t host_;
  std::int64_t phi_;
  const CancelToken* cancel_;
  std::vector<std::int64_t> upper_;  ///< v -> host arc weights; empty = none
  std::vector<std::pair<std::uint32_t, std::int64_t>> from_host_;
  std::int64_t label_cap_ = 0;
  std::int64_t round_cap_ = 0;

  std::vector<std::int64_t> r_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::int64_t> arrival_;
  std::vector<std::uint32_t> origin_;
  std::vector<std::uint32_t> indegree_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> queue_;  ///< FIFO for legality repair
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> walk_;  ///< parent_cycle's walk marks
  std::uint64_t relaxations_ = 0;
};

}  // namespace

std::optional<std::vector<std::int64_t>> feas_check(const RetimeGraph& graph,
                                                    std::int64_t phi,
                                                    const CancelToken* cancel) {
  return FeasProbe(graph, phi, cancel).run();
}

}  // namespace mcrt
