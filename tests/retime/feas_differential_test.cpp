// CSR FEAS against an independent formulation of the same question: the
// difference-constraint system of bounded_feasible() (circuit and bound
// constraints plus W/D period constraints, solved by SPFA). The two share
// nothing past the RetimeGraph, so they must agree on every probe's
// verdict, on the bound-free graphs and on the bounded ones. Labels are
// not comparable across the formulations (FEAS returns its own fixed point,
// SPFA a shortest-path potential), so label-level coverage comes from
// digests of the FEAS labels, recorded while a second, pointer-chasing FEAS
// engine was still compiled and checked label-for-label equal to this one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "mcretime/lower.h"
#include "mcretime/maximal_retiming.h"
#include "mcretime/mcgraph.h"
#include "retime/feas.h"
#include "retime/minperiod.h"
#include "retime/period_constraints.h"
#include "fuzz/case_gen.h"
#include "workload/generator.h"

namespace mcrt {
namespace {

struct NamedGraph {
  std::string name;
  RetimeGraph graph;  ///< with its class bounds, as lowering produced it
};

// Lowered retiming graph of a circuit, with unit LUT delays so the timing
// problem is non-degenerate.
RetimeGraph lowered_graph(Netlist circuit) {
  for (std::uint32_t v = 0; v < circuit.node_count(); ++v) {
    if (circuit.node(NodeId{v}).kind == NodeKind::kLut) {
      circuit.set_node_delay(NodeId{v}, 10);
    }
  }
  const McGraph mc = build_mc_graph(circuit);
  const MaximalRetimingResult maximal = compute_mc_bounds(mc);
  return lower_to_retime_graph(mc, maximal.bounds);
}

RetimeGraph lowered_graph(const CircuitProfile& profile) {
  return lowered_graph(generate_circuit(profile));
}

RetimeGraph hand_graph() {
  RetimeGraph g;
  const VertexId v1 = g.add_vertex(7, "v7");
  const VertexId v2 = g.add_vertex(3, "a3");
  const VertexId v3 = g.add_vertex(3, "b3");
  const VertexId v4 = g.add_vertex(3, "c3");
  g.add_edge(v1, v2, 1);
  g.add_edge(v2, v3, 1);
  g.add_edge(v3, v4, 1);
  g.add_edge(v4, v1, 0);
  // Host edges pin the interface like lowered graphs do.
  g.add_edge(g.host(), v1, 1);
  g.add_edge(v4, g.host(), 0);
  return g;
}

// The first three paper circuits plus five random ones.
std::vector<NamedGraph> workload_graphs() {
  std::vector<CircuitProfile> profiles = paper_suite();
  profiles.resize(3);
  const std::vector<CircuitProfile> extra = random_suite(5, 99);
  profiles.insert(profiles.end(), extra.begin(), extra.end());
  std::vector<NamedGraph> graphs;
  for (const CircuitProfile& profile : profiles) {
    graphs.push_back({profile.name, lowered_graph(profile)});
  }
  return graphs;
}

std::vector<NamedGraph> all_graphs() {
  std::vector<NamedGraph> graphs = workload_graphs();
  graphs.insert(graphs.begin(), NamedGraph{"hand", hand_graph()});
  return graphs;
}

// Probe schedule: every period 1..20 on the hand graph; elsewhere every
// distinct path delay, feasible and infeasible alike, decimated to keep the
// suite fast on the big circuits.
std::vector<std::int64_t> probe_periods(const NamedGraph& named) {
  std::vector<std::int64_t> probes;
  if (named.name == "hand") {
    for (std::int64_t phi = 1; phi <= 20; ++phi) probes.push_back(phi);
    return probes;
  }
  const std::vector<std::int64_t> candidates = candidate_periods(named.graph);
  const std::size_t stride =
      candidates.size() > 64 ? candidates.size() / 64 : 1;
  for (std::size_t i = 0; i < candidates.size(); i += stride) {
    probes.push_back(candidates[i]);
  }
  return probes;
}

// FEAS is the *unbounded* engine, so a feasible answer must be a legal
// unbounded retiming: w_r >= 0 everywhere (not check_legal(), which also
// enforces class bounds) and period <= phi.
void expect_feas_labels_valid(const RetimeGraph& graph, std::int64_t phi,
                              const std::vector<std::int64_t>& r) {
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    ASSERT_GE(graph.retimed_weight(EdgeId{static_cast<std::uint32_t>(e)}, r),
              0)
        << "phi=" << phi;
  }
  EXPECT_LE(graph.period(r), phi);
}

void expect_same_verdict(const RetimeGraph& unbounded, std::int64_t phi,
                         const std::string& name) {
  const auto feas = feas_check(unbounded, phi);
  const auto constraints = bounded_feasible(unbounded, phi);
  ASSERT_EQ(feas.has_value(), constraints.has_value())
      << name << " phi=" << phi;
  if (feas) expect_feas_labels_valid(unbounded, phi, *feas);
}

std::uint64_t fnv_fold(std::uint64_t h, std::int64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Digest of every probe's FEAS verdict and labels, in probe order.
std::string probe_label_digest(const NamedGraph& named) {
  const RetimeGraph unbounded = named.graph.without_bounds();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::int64_t phi : probe_periods(named)) {
    h = fnv_fold(h, phi);
    const auto r = feas_check(unbounded, phi);
    h = fnv_fold(h, r ? 1 : 0);
    if (r) {
      for (const std::int64_t label : *r) h = fnv_fold(h, label);
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(FeasDifferentialTest, HandGraphAllCandidates) {
  const NamedGraph named{"hand", hand_graph()};
  for (const std::int64_t phi : probe_periods(named)) {
    expect_same_verdict(named.graph, phi, named.name);
  }
}

TEST(FeasDifferentialTest, WorkloadGraphsAgreeOnEveryCandidate) {
  for (const NamedGraph& named : workload_graphs()) {
    const RetimeGraph unbounded = named.graph.without_bounds();
    for (const std::int64_t phi : probe_periods(named)) {
      expect_same_verdict(unbounded, phi, named.name);
    }
  }
}

TEST(FeasDifferentialTest, ProbeLabelsMatchPinnedDigests) {
  const std::vector<std::pair<std::string, std::string>> pinned = {
      {"hand", "e3be4f1b84b04471"}, {"C1", "732115e1c64e52bb"},
      {"C2", "08e5d1636890d485"},   {"C3", "e2ff9b1340f63115"},
      {"r00", "7b49a5c6d93c88e3"},  {"r01", "a7c565b40802aff4"},
      {"r02", "b25245488f375ae3"},  {"r03", "83c124688796a543"},
      {"r04", "cfb5656ec9affd3d"},
  };
  const std::vector<NamedGraph> graphs = all_graphs();
  ASSERT_EQ(graphs.size(), pinned.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_EQ(graphs[i].name, pinned[i].first);
    EXPECT_EQ(probe_label_digest(graphs[i]), pinned[i].second)
        << graphs[i].name;
  }
}

// minperiod_retime's period P is optimal: the constraint system admits P
// and rejects P - 1, both with the class bounds (the production problem)
// and without them (the pure-FEAS search path).
TEST(FeasDifferentialTest, MinperiodTightAgainstConstraintSystem) {
  for (const NamedGraph& named : all_graphs()) {
    for (const RetimeGraph& graph :
         {named.graph, named.graph.without_bounds()}) {
      const RetimeSolution solution = minperiod_retime(graph);
      ASSERT_TRUE(solution.feasible) << named.name;
      EXPECT_TRUE(graph.check_legal(solution.r).empty()) << named.name;
      EXPECT_LE(graph.period(solution.r), solution.period) << named.name;
      EXPECT_TRUE(bounded_feasible(graph, solution.period).has_value())
          << named.name << " P=" << solution.period;
      EXPECT_FALSE(bounded_feasible(graph, solution.period - 1).has_value())
          << named.name << " P-1=" << solution.period - 1;
    }
  }
}

// The bounded graphs: the hand graph with one vertex pinned and one
// half-pinned, the workload graphs with their class bounds, and the
// register-class zoo and the dual-clock rig lowered the same way.
std::vector<NamedGraph> bounded_graphs() {
  std::vector<NamedGraph> graphs = all_graphs();
  RetimeGraph& hand = graphs.front().graph;
  hand.set_bounds(VertexId{1}, 0, 0);
  hand.set_bounds(VertexId{3}, -1, 0);
  graphs.push_back({"zoo", lowered_graph(register_class_zoo(7))});
  graphs.push_back({"dualclk", lowered_graph(dual_clock_rig(8))});
  return graphs;
}

// Bounded FEAS decides the same question as the bounded constraint system:
// the same verdict on every probe, legal bounded labels when feasible, and
// the same verdict at the min period P (accepted) and P - 1 (rejected).
TEST(FeasDifferentialTest, BoundedGraphsAgreeOnEveryCandidateAndAtP) {
  for (const NamedGraph& named : bounded_graphs()) {
    ASSERT_TRUE(named.graph.has_bounds()) << named.name;
    std::vector<std::int64_t> probes = probe_periods(named);
    const RetimeSolution solution = minperiod_retime(named.graph);
    probes.push_back(solution.period);
    probes.push_back(solution.period - 1);
    for (const std::int64_t phi : probes) {
      const auto feas = feas_check(named.graph, phi);
      const auto constraints = bounded_feasible(named.graph, phi);
      ASSERT_EQ(feas.has_value(), constraints.has_value())
          << named.name << " phi=" << phi;
      if (!feas) continue;
      EXPECT_TRUE(named.graph.check_legal(*feas).empty())
          << named.name << " phi=" << phi << ": "
          << named.graph.check_legal(*feas);
      EXPECT_LE(named.graph.period(*feas), phi) << named.name;
    }
    EXPECT_TRUE(feas_check(named.graph, solution.period).has_value())
        << named.name << " P=" << solution.period;
    EXPECT_FALSE(feas_check(named.graph, solution.period - 1).has_value())
        << named.name << " P-1=" << solution.period - 1;
  }
}

// Min-period at 16k gates: the probes below the optimum are infeasibility
// proofs that bounded FEAS ends in their first rounds, so the whole search
// takes milliseconds. A search over the candidate periods with a W/D
// constraint solve per probe grows about 4x per size doubling and misses
// this deadline.
TEST(FeasDifferentialTest, MinperiodAt16kGatesWithinDeadline) {
  const RetimeGraph graph = lowered_graph(scaled_profile(16000, 1));
  ASSERT_TRUE(graph.has_bounds());
  CancelToken deadline;
  deadline.set_timeout(10.0);
  const RetimeSolution solution = minperiod_retime(graph, &deadline);
  EXPECT_EQ(solution.period, 170);
  EXPECT_TRUE(graph.check_legal(solution.r).empty());
}

TEST(FeasDifferentialTest, InfeasiblePeriodRejectedByBoth) {
  const RetimeGraph graph =
      lowered_graph(random_suite(1, 5).front()).without_bounds();
  // A period below the largest single-vertex delay is never feasible.
  EXPECT_FALSE(feas_check(graph, 1).has_value());
  EXPECT_FALSE(bounded_feasible(graph, 1).has_value());
}

}  // namespace
}  // namespace mcrt
