#include "retime/feas.h"

#include <gtest/gtest.h>

namespace mcrt {
namespace {

/// The classic Leiserson-Saxe correlator: ring of vertices
/// d = 0(host-ish element replaced), we use delays 3,3,3,7 style.
RetimeGraph correlator() {
  RetimeGraph g;
  const VertexId v1 = g.add_vertex(7, "v7");
  const VertexId v2 = g.add_vertex(3, "a3");
  const VertexId v3 = g.add_vertex(3, "b3");
  const VertexId v4 = g.add_vertex(3, "c3");
  // Ring with registers: v1 -> v2 -> v3 -> v4 -> v1, 1 register on each of
  // the three "delay" edges (the LS correlator has weights 1,1,0... use a
  // shape whose optimum is known).
  g.add_edge(v1, v2, 1);
  g.add_edge(v2, v3, 1);
  g.add_edge(v3, v4, 1);
  g.add_edge(v4, v1, 0);
  return g;
}

TEST(FeasTest, CurrentPeriodAlwaysFeasible) {
  const RetimeGraph g = correlator();
  const std::int64_t period = g.period();
  const auto r = feas_check(g, period);
  ASSERT_TRUE(r);
  EXPECT_LE(g.period(*r), period);
}

TEST(FeasTest, FindsBetterPeriod) {
  const RetimeGraph g = correlator();
  // Current: v4 -> v1 zero-weight: 3 + 7 = 10. After retiming, 7 + 3 = 10?
  // Moving the register on v3->v4 to v4->v1 gives zero path v3->v4 = 6 and
  // v1 alone 7 -> period 7 is feasible.
  const auto r = feas_check(g, 7);
  ASSERT_TRUE(r);
  EXPECT_LE(g.period(*r), 7);
  EXPECT_TRUE(g.check_legal(*r).empty());
}

TEST(FeasTest, InfeasibleBelowMaxDelay) {
  const RetimeGraph g = correlator();
  EXPECT_FALSE(feas_check(g, 6));  // v1 alone has delay 7
}

TEST(FeasTest, TotalCycleDelayBound) {
  // A ring with total delay 16 and 3 registers: period >= ceil(16/3) = 6
  // is a classic lower bound; 10 must be feasible, 3 must not.
  const RetimeGraph g = correlator();
  EXPECT_TRUE(feas_check(g, 10));
  EXPECT_FALSE(feas_check(g, 3));
}

TEST(FeasTest, ReturnsLegalRetiming) {
  const RetimeGraph g = correlator();
  for (std::int64_t phi = 7; phi <= 16; ++phi) {
    const auto r = feas_check(g, phi);
    if (r) {
      EXPECT_TRUE(g.check_legal(*r).empty())
          << "phi=" << phi << ": " << g.check_legal(*r);
    }
  }
}

// Two pinned vertices (r_min = r_max = 0) joined by a zero-weight path of
// delay D: the path's register count is fixed at zero, so every phi < D is
// infeasible and phi = D is feasible, although the loop through the host
// carries registers that the unbounded problem could pull in.
TEST(FeasTest, PinnedEndpointsFixZeroWeightPathDelay) {
  RetimeGraph g;
  const VertexId a = g.add_vertex(4, "a");
  const VertexId m1 = g.add_vertex(4, "m1");
  const VertexId m2 = g.add_vertex(4, "m2");
  const VertexId b = g.add_vertex(4, "b");
  g.add_edge(g.host(), a, 2);
  g.add_edge(a, m1, 0);
  g.add_edge(m1, m2, 0);
  g.add_edge(m2, b, 0);
  g.add_edge(b, g.host(), 2);
  constexpr std::int64_t kD = 16;
  ASSERT_EQ(g.period(), kD);
  EXPECT_TRUE(feas_check(g, 8).has_value());  // unbounded: registers move in
  g.set_bounds(a, 0, 0);
  g.set_bounds(b, 0, 0);
  for (std::int64_t phi = 1; phi < kD; ++phi) {
    EXPECT_FALSE(feas_check(g, phi).has_value()) << "phi=" << phi;
  }
  const auto r = feas_check(g, kD);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(g.check_legal(*r).empty()) << g.check_legal(*r);
}

// The bounded optimum needs a negative label: the register on host -> a
// must move forward onto a -> b, i.e. r(a) = -1, which a's bound allows.
TEST(FeasTest, BoundedOptimumWithNegativeLabel) {
  RetimeGraph g;
  const VertexId a = g.add_vertex(5, "a");
  const VertexId b = g.add_vertex(5, "b");
  g.add_edge(g.host(), a, 2);
  g.add_edge(a, b, 0);
  g.add_edge(b, g.host(), 0);
  g.set_bounds(a, -1, 0);
  g.set_bounds(b, 0, 0);
  ASSERT_EQ(g.period(), 10);
  const auto r = feas_check(g, 5);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[g.host().index()], 0);
  EXPECT_EQ((*r)[a.index()], -1);
  EXPECT_EQ((*r)[b.index()], 0);
  EXPECT_EQ(g.period(*r), 5);
  EXPECT_FALSE(feas_check(g, 4).has_value());
  // Forbidding the negative label leaves the current period optimal.
  g.set_bounds(a, 0, 0);
  EXPECT_FALSE(feas_check(g, 9).has_value());
  EXPECT_TRUE(feas_check(g, 10).has_value());
}

// A stop request unwinds from inside a probe (polled once per round).
TEST(FeasTest, CancelledTokenThrowsFromProbe) {
  const RetimeGraph g = correlator();
  CancelToken token;
  token.request_cancel();
  EXPECT_THROW(feas_check(g, 7, &token), CancelledError);
  CancelToken live;
  EXPECT_TRUE(feas_check(g, 7, &live).has_value());
}

}  // namespace
}  // namespace mcrt
