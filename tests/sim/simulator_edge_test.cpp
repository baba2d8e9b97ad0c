// Edge-case simulator behaviours: async feedback loops, X merging at
// controls, settle() without clocking, per-lane register semantics and
// state injection in the word simulator, explicit reset-input selection in
// the equivalence oracle.
#include <gtest/gtest.h>

#include "../common/test_circuits.h"
#include "sim/equivalence.h"
#include "sim/simulator.h"
#include "sim/word_simulator.h"

namespace mcrt {
namespace {

TEST(SimulatorEdgeTest, SettleWithoutClockIsCombinational) {
  Netlist n;
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId g = n.add_lut(TruthTable::xor_n(2), {a, b});
  n.add_output("o", g);
  Simulator sim(n);
  sim.set_input(a, Trit::kOne);
  sim.set_input(b, Trit::kZero);
  sim.settle();
  EXPECT_EQ(sim.net_value(g), Trit::kOne);
  sim.set_input(b, Trit::kOne);
  sim.settle();
  EXPECT_EQ(sim.net_value(g), Trit::kZero);
}

TEST(SimulatorEdgeTest, AsyncControlFeedbackSettles) {
  // A register whose async clear depends on its own output (self-clearing
  // pulse): settle() must reach a fixed point, not hang.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId d = n.add_input("d");
  const NetId q_net = n.add_net("q");
  // async = q itself: when q becomes 1 it clears itself to 0.
  Register ff;
  ff.d = d;
  ff.q = q_net;
  ff.clk = clk;
  ff.async_ctrl = q_net;
  ff.async_val = ResetVal::kZero;
  n.add_register(std::move(ff));
  n.add_output("o", q_net);
  Simulator sim(n);
  sim.set_input(d, Trit::kOne);
  // Must terminate; the oscillating state degrades to X or settles at 0.
  const auto out = sim.step();
  EXPECT_TRUE(out[0] == Trit::kZero || out[0] == Trit::kUnknown);
}

TEST(SimulatorEdgeTest, UnknownSyncControlMerges) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId d = n.add_input("d");
  const NetId sr = n.add_input("sr");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.sync_ctrl = sr;
  ff.sync_val = ResetVal::kOne;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("o", q);
  Simulator sim(n);
  // d = 1 and sync value 1 agree: X on the control still yields 1.
  sim.set_input(d, Trit::kOne);
  sim.set_input(sr, Trit::kUnknown);
  sim.step();
  EXPECT_EQ(sim.step()[0], Trit::kOne);
  // d = 0 disagrees with sync value 1: X control gives X.
  sim.set_input(d, Trit::kZero);
  sim.step();
  EXPECT_EQ(sim.step()[0], Trit::kUnknown);
}

TEST(SimulatorEdgeTest, RegisterStateInjection) {
  const Netlist n = testing::chain_circuit(0, 1);
  Simulator sim(n);
  sim.set_register_state(RegId{0}, Trit::kOne);
  EXPECT_EQ(sim.register_state(RegId{0}), Trit::kOne);
  sim.settle();
  EXPECT_EQ(sim.output_values()[0], Trit::kOne);
}

TEST(WordSimulatorTest, RegisterSemantics) {
  // One enabled register, different stimulus per lane.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId d = n.add_input("d");
  const NetId en = n.add_input("en");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.en = en;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("o", q);
  WordSimulator sim(n);
  TritWord d_word;
  TritWord en_word;
  d_word.set_lane(0, Trit::kOne);   // lane 0: loads 1
  en_word.set_lane(0, Trit::kOne);
  d_word.set_lane(1, Trit::kOne);   // lane 1: enable off, holds X
  en_word.set_lane(1, Trit::kZero);
  sim.set_input(d, d_word);
  sim.set_input(en, en_word);
  sim.step();
  const auto out = sim.step();
  EXPECT_EQ(out[0].lane(0), Trit::kOne);
  EXPECT_EQ(out[0].lane(1), Trit::kUnknown);
}

TEST(WordSimulatorTest, StateInjection) {
  const Netlist n = testing::chain_circuit(0, 1);
  WordSimulator sim(n);
  TritWord w;
  w.set_lane(5, Trit::kOne);
  w.set_lane(6, Trit::kZero);
  sim.set_register_state(RegId{0}, w);
  sim.settle();
  const auto out = sim.output_values();
  EXPECT_EQ(out[0].lane(5), Trit::kOne);
  EXPECT_EQ(out[0].lane(6), Trit::kZero);
  EXPECT_EQ(out[0].lane(7), Trit::kUnknown);
}

TEST(EquivalenceEdgeTest, ExplicitResetInputsRespected) {
  // A circuit whose reset is named oddly: the heuristic misses it, the
  // explicit list catches it.
  Netlist a;
  const NetId clk = a.add_input("clk");
  const NetId clear_in = a.add_input("zap");  // not rst-like
  const NetId d = a.add_input("d");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.async_ctrl = clear_in;
  ff.async_val = ResetVal::kZero;
  a.add_output("o", a.add_register(std::move(ff)));

  EquivalenceOptions opt;
  opt.reset_inputs = {"zap"};
  const auto eq = check_sequential_equivalence(a, a, opt);
  EXPECT_TRUE(eq.equivalent);
  EXPECT_GT(eq.compared_defined_outputs, 0u);
}

TEST(EquivalenceEdgeTest, WarmupSkipsEarlyCycles) {
  // Two circuits differing only in unresettable initial latency would
  // mismatch at cycle 0; with warm-up and flushing logic they compare.
  const Netlist n = testing::chain_circuit(2, 1);
  EquivalenceOptions opt;
  opt.warmup = 4;
  const auto eq = check_sequential_equivalence(n, n, opt);
  EXPECT_TRUE(eq.equivalent);
}

}  // namespace
}  // namespace mcrt
