// Exact outcomes on four tiny latch networks (the forward-1, forward-2,
// backward-1 and zero-retime cases of mockturtle's retime tests), plus a
// forward-1 variant whose registers sit in different EN classes. Every
// gate has delay 10 and every register is plain (clk only) unless noted,
// so each expected period, register count and label vector below is
// derived by hand in the comment next to it.
//
// Lowered-graph layout: vertex 0 is the host, then one vertex per netlist
// node in creation order (inputs and outputs have delay 0 and the bounds
// [0, 0]), then any control taps. With w_r(e_uv) = w(e) + r(v) - r(u), a
// negative gate label moves registers forward across the gate and a
// positive one moves them backward.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "retime/minperiod.h"
#include "sim/equivalence.h"
#include "tech/sta.h"

namespace mcrt {
namespace {

NetId latch(Netlist& n, NetId d, NetId clk, const char* name,
            NetId en = {}) {
  Register reg;
  reg.d = d;
  reg.clk = clk;
  reg.en = en;
  reg.name = name;
  return n.add_register(std::move(reg));
}

NetId gate(Netlist& n, TruthTable function, std::vector<NetId> fanins,
           const char* name) {
  const NetId out = n.add_lut(std::move(function), std::move(fanins), name);
  n.set_node_delay(NodeId{n.net(out).driver.index}, 10);
  return out;
}

struct Expected {
  std::int64_t period_before;
  std::int64_t period_after;
  std::size_t registers_before;
  std::size_t registers_after;
  std::vector<std::int64_t> minperiod_labels;
};

void expect_exact(const Netlist& n, const Expected& want) {
  const McPrepared prepared = prepare_mc_graph(n, McRetimeOptions{});
  const RetimeGraph graph =
      lower_to_retime_graph(prepared.graph, prepared.bounds);
  const RetimeSolution minperiod = minperiod_retime(graph);
  ASSERT_TRUE(minperiod.feasible);
  EXPECT_EQ(minperiod.period, want.period_after);
  EXPECT_EQ(minperiod.r, want.minperiod_labels);

  const McRetimeResult result = mc_retime(n);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.stats.period_before, want.period_before);
  EXPECT_EQ(result.stats.period_after, want.period_after);
  EXPECT_EQ(result.stats.registers_before, want.registers_before);
  EXPECT_EQ(result.stats.registers_after, want.registers_after);
  EXPECT_EQ(result.netlist.register_count(), want.registers_after);
  EXPECT_EQ(compute_period(result.netlist), want.period_after);
  const EquivalenceResult eq =
      check_sequential_equivalence(n, result.netlist, {});
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

// a, b -> [b1], [b2] -> f = AND -> out.
// Graph: host, clk, a, b, f, out. The AND's label r(f) is bounded to
// [-1, 0]: w_r(a->f) = 1 + r(f) >= 0 and w_r(f->out) = -r(f) >= 0.
// Period: 10 either way (one gate between register boundaries), which is
// also the floor, so min-period keeps r = 0. Min area: r(f) = 0 keeps 2
// registers, r(f) = -1 merges them into one after the AND.
TEST(McRetimeMicroCaseTest, Forward1MergesTwoRegistersIntoOne) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId f = gate(n, TruthTable::and_n(2),
                       {latch(n, a, clk, "b1"), latch(n, b, clk, "b2")}, "f");
  n.add_output("out", f);
  expect_exact(n, {10, 10, 2, 1, {0, 0, 0, 0, 0, 0}});
}

// forward-1 with b1 enabled by e1 and b2 by e2: the registers are in
// different classes, so no layer of one class spans both AND inputs and
// the §4.1 bounds pin r(f) to [0, 0]. Nothing moves: 2 registers stay.
// Graph: host, clk, a, b, e1, e2, f, out, then one control tap per EN
// net (the pseudo primary output of paper Fig. 2b). All labels stay 0.
TEST(McRetimeMicroCaseTest, Forward1WithDifferentEnableClassesStaysAtTwo) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId e1 = n.add_input("e1");
  const NetId e2 = n.add_input("e2");
  const NetId f = gate(
      n, TruthTable::and_n(2),
      {latch(n, a, clk, "b1", e1), latch(n, b, clk, "b2", e2)}, "f");
  n.add_output("out", f);
  expect_exact(n, {10, 10, 2, 2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}});
}

// a -> x1 = NOT -> [b1] -> o1 and a -> x2 = BUF -> [b2] -> o2.
// Graph: host, clk, a, x1, x2, o1, o2. r(x1), r(x2) in [0, 1]. Period 10
// is the floor, so min-period keeps r = 0. Min area: r(x1) = r(x2) = 1
// moves both registers backward onto a's two fanout edges, which share
// one register (a vertex's fanout registers cost their maximum, 1).
TEST(McRetimeMicroCaseTest, Backward1SharesOneRegisterOnTheInput) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId x1 = gate(n, TruthTable::inverter(), {a}, "x1");
  const NetId x2 = gate(n, TruthTable::buffer(), {a}, "x2");
  n.add_output("o1", latch(n, x1, clk, "b1"));
  n.add_output("o2", latch(n, x2, clk, "b2"));
  expect_exact(n, {10, 10, 2, 1, {0, 0, 0, 0, 0, 0, 0}});
}

// a, b -> [b1], [b2] -> x1 = AND, x2 = OR -> o1, o2.
// Graph: host, clk, a, b, x1, o1, x2, o2 (each output follows its gate).
// r(x1), r(x2) in [-1, 0]. Both 0: one register on each of a's and b's
// fanouts = 2. Both -1: one per gate output = 2. Mixed: 3. The optimum is
// the current count, 2, at the floor period 10.
TEST(McRetimeMicroCaseTest, ZeroRetimeKeepsBothRegisters) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId b1 = latch(n, a, clk, "b1");
  const NetId b2 = latch(n, b, clk, "b2");
  n.add_output("o1", gate(n, TruthTable::and_n(2), {b1, b2}, "x1"));
  n.add_output("o2", gate(n, TruthTable::or_n(2), {b1, b2}, "x2"));
  expect_exact(n, {10, 10, 2, 2, {0, 0, 0, 0, 0, 0, 0, 0}});
}

// a, b -> [b1], [b2] -> x1 = AND; x1, c -> [b3] -> x2 = OR -> [b4] -> o.
// Graph: host, clk, a, b, c, x1, x2, o. Before: b1 -> x1 -> x2 -> b4 is a
// two-gate path, period 20; 4 registers. Min period is the one-gate floor
// 10, which needs a register on x1 -> x2: r(x1) - r(x2) <= -1, with
// r(x1), r(x2) in [-1, 1]. The constraint solve returns the pointwise
// greatest solution <= 0, r(x2) = 0 and r(x1) = -1 (b1, b2 merge forward
// across the AND). Min area at period 10 picks the same labels:
// w_r(x1 -> x2) = 1, w_r(c -> x2) = 1, w_r(x2 -> o) = 1, so 3 registers;
// (r(x1), r(x2)) = (-1, 1) costs 4 and (0, 1) costs 5.
TEST(McRetimeMicroCaseTest, Forward2HalvesThePeriodWithThreeRegisters) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId c = n.add_input("c");
  const NetId x1 = gate(n, TruthTable::and_n(2),
                        {latch(n, a, clk, "b1"), latch(n, b, clk, "b2")},
                        "x1");
  const NetId x2 =
      gate(n, TruthTable::or_n(2), {x1, latch(n, c, clk, "b3")}, "x2");
  n.add_output("o", latch(n, x2, clk, "b4"));
  expect_exact(n, {20, 10, 4, 3, {0, 0, 0, 0, 0, -1, 0, 0}});
}

}  // namespace
}  // namespace mcrt
