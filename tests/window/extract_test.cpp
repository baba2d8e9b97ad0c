// The §4.1 composition property that makes windowing sound: the lowered
// retiming graph carries per-vertex r_min/r_max bounds, so a window solved
// with its boundary frozen at r = 0 yields labels that are legal in the
// *parent* graph — for each window alone, and for all windows stitched
// together. Exercised across EN, async-reset and plain register classes.
#include "window/extract.h"

#include <gtest/gtest.h>

#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "retime/minperiod.h"
#include "window/partition.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

struct Lowered {
  McGraph mcg;
  RetimeGraph global;
};

Lowered lower_circuit(std::uint64_t seed, bool use_en, bool use_async) {
  RandomCircuitOptions circuit;
  circuit.gates = 100;
  circuit.registers = 20;
  circuit.feedback_registers = 3;
  circuit.use_en = use_en;
  circuit.use_async = use_async;
  const Netlist n = random_sequential_circuit(seed, circuit);
  McRetimeOptions options;
  McPrepared prepared = prepare_mc_graph(n, options);
  Lowered out;
  out.global = lower_to_retime_graph(prepared.graph, prepared.bounds);
  out.mcg = std::move(prepared.graph);
  return out;
}

void check_composition(std::uint64_t seed, bool use_en, bool use_async) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " en=" << use_en
                                    << " async=" << use_async);
  const Lowered lowered = lower_circuit(seed, use_en, use_async);
  const RetimeGraph& global = lowered.global;

  PartitionOptions popt;
  popt.max_window = 24;
  const WindowPartition part = partition_mc_graph(lowered.mcg, popt);
  ASSERT_GT(part.window_count(), 1u);
  const BoundaryTiming timing = compute_boundary_timing(global);

  std::vector<std::int64_t> stitched(global.vertex_count(), 0);
  for (std::size_t w = 0; w < part.window_count(); ++w) {
    const WindowProblem prob = extract_window(global, part, w, timing);
    // Boundary proxies are pinned: the outside is frozen at r = 0.
    for (std::uint32_t v = 1; v < prob.graph.vertex_count(); ++v) {
      if (prob.proxy(v)) {
        EXPECT_EQ(prob.graph.lower_bound(VertexId{v}), 0);
        EXPECT_EQ(prob.graph.upper_bound(VertexId{v}), 0);
      }
    }
    const RetimeSolution sol = minperiod_retime(prob.graph);
    ASSERT_TRUE(sol.feasible);
    ASSERT_TRUE(prob.graph.check_legal(sol.r).empty())
        << prob.graph.check_legal(sol.r);

    // One window's solution with everything else frozen at r = 0 is legal
    // in the parent graph: the bounds compose (paper §4.1).
    std::vector<std::int64_t> alone(global.vertex_count(), 0);
    stitch_window_labels(prob, sol.r, alone);
    EXPECT_TRUE(global.check_legal(alone).empty())
        << "window " << w << ": " << global.check_legal(alone);

    stitch_window_labels(prob, sol.r, stitched);
  }
  // All windows together: crossing edges see each endpoint move within its
  // own §4.1 bounds, so the union stays legal too.
  EXPECT_TRUE(global.check_legal(stitched).empty())
      << global.check_legal(stitched);
}

TEST(WindowComposeTest, PlainRegisters) {
  check_composition(3, /*use_en=*/false, /*use_async=*/false);
}

TEST(WindowComposeTest, EnableClasses) {
  check_composition(5, /*use_en=*/true, /*use_async=*/false);
}

TEST(WindowComposeTest, AsyncResetClasses) {
  check_composition(7, /*use_en=*/false, /*use_async=*/true);
}

TEST(WindowComposeTest, MixedClasses) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    check_composition(seed, /*use_en=*/true, /*use_async=*/true);
  }
}

TEST(WindowComposeTest, BoundaryTimingIsConservative) {
  const Lowered lowered = lower_circuit(21, true, true);
  const BoundaryTiming timing = compute_boundary_timing(lowered.global);
  ASSERT_EQ(timing.arrival.size(), lowered.global.vertex_count());
  for (std::uint32_t v = 0; v < lowered.global.vertex_count(); ++v) {
    // Arrival/required include the vertex's own delay, so they are at
    // least d(v) and never negative.
    EXPECT_GE(timing.arrival[v], lowered.global.delay(VertexId{v}));
    EXPECT_GE(timing.required[v], lowered.global.delay(VertexId{v}));
  }
}

}  // namespace
}  // namespace mcrt
