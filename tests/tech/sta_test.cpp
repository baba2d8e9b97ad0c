#include "tech/sta.h"

#include <gtest/gtest.h>

#include "../common/test_circuits.h"

namespace mcrt {
namespace {

TEST(StaTest, ChainDelayAccumulates) {
  const Netlist n = testing::chain_circuit(5, 1, /*gate_delay=*/3);
  EXPECT_EQ(compute_period(n), 15);
}

TEST(StaTest, RegistersCutPaths) {
  // 2 gates, register, 3 gates: period = 3 * gate_delay.
  Netlist n;
  const NetId clk = n.add_input("clk");
  NetId net = n.add_input("in");
  for (int i = 0; i < 2; ++i) {
    net = n.add_lut(TruthTable::inverter(), {net});
    n.set_node_delay(NodeId{n.net(net).driver.index}, 5);
  }
  Register ff;
  ff.d = net;
  ff.clk = clk;
  net = n.add_register(std::move(ff));
  for (int i = 0; i < 3; ++i) {
    net = n.add_lut(TruthTable::inverter(), {net});
    n.set_node_delay(NodeId{n.net(net).driver.index}, 5);
  }
  n.add_output("o", net);
  EXPECT_EQ(compute_period(n), 15);
}

TEST(StaTest, ControlPinsAreEndpoints) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId d = n.add_input("d");
  NetId en = a;
  for (int i = 0; i < 4; ++i) {
    en = n.add_lut(TruthTable::inverter(), {en});
    n.set_node_delay(NodeId{n.net(en).driver.index}, 7);
  }
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.en = en;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("q", q);
  EXPECT_EQ(compute_period(n), 28);  // the enable cone is the critical path
}

TEST(StaTest, ArrivalTimesExposed) {
  const Netlist n = testing::chain_circuit(3, 1, 2);
  const TimingReport report = analyze_timing(n);
  EXPECT_EQ(report.period, 6);
  // Arrival at the PI is 0.
  EXPECT_EQ(report.arrival[n.node(n.inputs()[0]).output.index()], 0);
}

TEST(StaTest, PureCombinationalCircuit) {
  Netlist n;
  const NetId a = n.add_input("a");
  const NetId g = n.add_lut(TruthTable::inverter(), {a});
  n.set_node_delay(NodeId{n.net(g).driver.index}, 4);
  n.add_output("o", g);
  EXPECT_EQ(compute_period(n), 4);
}

TEST(StaTest, EmptyDelaysGiveZero) {
  const Netlist n = testing::fig1_circuit();  // delays default to 0
  EXPECT_EQ(compute_period(n), 0);
}

TEST(StaTest, LutDepthCountsLutsNotDelays) {
  // Registers cut paths, constants are not levels, delays are ignored.
  EXPECT_EQ(lut_depth(testing::chain_circuit(5, 1, /*gate_delay=*/3)), 5u);
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId one = n.add_const(true, "one");
  NetId net = n.add_lut(TruthTable::and_n(2), {n.add_input("a"), one});
  Register ff;
  ff.d = net;
  ff.clk = clk;
  net = n.add_register(std::move(ff));
  for (int i = 0; i < 3; ++i) net = n.add_lut(TruthTable::inverter(), {net});
  n.add_output("o", net);
  EXPECT_EQ(lut_depth(n), 3u);
}

}  // namespace
}  // namespace mcrt
