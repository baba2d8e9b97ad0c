#include "tech/flowmap.h"

#include <gtest/gtest.h>

#include "../common/test_circuits.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/sta.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

FlowMapResult map4(const Netlist& n) {
  FlowMapOptions opt;
  opt.k = 4;
  return flowmap_map(decompose_to_binary(n), opt);
}

TEST(FlowMapTest, LutFaninsBounded) {
  const Netlist n = random_sequential_circuit(11);
  const auto result = map4(n);
  for (const Node& node : result.mapped.nodes()) {
    if (node.kind == NodeKind::kLut) {
      EXPECT_LE(node.fanins.size(), 4u);
    }
  }
  EXPECT_TRUE(result.mapped.validate().empty());
}

TEST(FlowMapTest, PreservesBehaviour) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist n = random_sequential_circuit(seed);
    const auto result = map4(n);
    EquivalenceOptions opt;
    opt.runs = 3;
    opt.cycles = 32;
    opt.init_registers_by_name = true;
    const auto eq = check_sequential_equivalence(n, result.mapped, opt);
    EXPECT_TRUE(eq.equivalent)
        << "seed " << seed << ": " << eq.counterexample;
  }
}

TEST(FlowMapTest, ChainPacksIntoFewLuts) {
  // 8 inverters in a row fit into two 4-LUTs (depth 2); FlowMap must not
  // leave them as 8 levels.
  const Netlist n = testing::chain_circuit(8, 1);
  const auto result = map4(n);
  EXPECT_LE(result.depth, 2u);
  EXPECT_LE(result.lut_count, 2u);
}

TEST(FlowMapTest, DepthIsOptimalForBalancedTree) {
  // A 16-input AND tree: 4-LUT depth 2 is optimal.
  Netlist n;
  std::vector<NetId> layer;
  for (int i = 0; i < 16; ++i) {
    layer.push_back(n.add_input("i" + std::to_string(i)));
  }
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(n.add_lut(TruthTable::and_n(2), {layer[i], layer[i + 1]}));
    }
    layer = std::move(next);
  }
  n.add_output("o", layer[0]);
  const auto result = flowmap_map(n, {});
  EXPECT_EQ(result.depth, 2u);
}

TEST(FlowMapTest, AssignsLutDelays) {
  const Netlist n = testing::chain_circuit(8, 1);
  FlowMapOptions opt;
  opt.lut_delay = 10;
  const auto result = flowmap_map(decompose_to_binary(n), opt);
  const std::int64_t period = compute_period(result.mapped);
  EXPECT_EQ(period, static_cast<std::int64_t>(result.depth) * 10);
}

TEST(FlowMapTest, RegistersAndControlsSurvive) {
  const Netlist n = testing::fig1_circuit();
  const auto result = map4(n);
  EXPECT_EQ(result.mapped.register_count(), 2u);
  EXPECT_EQ(result.mapped.stats().with_en, 2u);
}

TEST(FlowMapTest, ControlConesAreMapped) {
  // An enable computed by logic must itself be covered by LUTs.
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId d = n.add_input("d");
  const NetId en = n.add_lut(TruthTable::or_n(2), {a, b}, "en");
  Register ff;
  ff.d = d;
  ff.clk = clk;
  ff.en = en;
  const NetId q = n.add_register(std::move(ff));
  n.add_output("q", q);
  const auto result = map4(n);
  EXPECT_GE(result.lut_count, 1u);
  ASSERT_EQ(result.mapped.register_count(), 1u);
  EXPECT_TRUE(result.mapped.reg(RegId{0}).en.valid());
}

TEST(FlowMapTest, AreaRecoveryPreservesDepthAndBehaviour) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist n = decompose_to_binary(random_sequential_circuit(seed));
    FlowMapOptions plain;
    FlowMapOptions recover;
    recover.area_recovery = true;
    const auto a = flowmap_map(n, plain);
    const auto b = flowmap_map(n, recover);
    // Depth-optimality is preserved exactly.
    EXPECT_EQ(b.depth, a.depth) << "seed " << seed;
    EquivalenceOptions opt;
    opt.runs = 2;
    opt.cycles = 32;
    opt.init_registers_by_name = true;
    const auto eq = check_sequential_equivalence(n, b.mapped, opt);
    EXPECT_TRUE(eq.equivalent) << "seed " << seed << ": "
                               << eq.counterexample;
  }
}

TEST(FlowMapTest, AreaRecoveryReusesSharedCone) {
  // Diamond: a shared subcone demanded by a deep consumer and tapped by a
  // shallow one. With recovery the shallow root reuses the shared net
  // instead of duplicating its cone.
  Netlist n;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(n.add_input("i" + std::to_string(i)));
  }
  // shared = AND tree of all four inputs (depth 2 at k=2 bound).
  const NetId s1 = n.add_lut(TruthTable::and_n(2), {ins[0], ins[1]});
  const NetId s2 = n.add_lut(TruthTable::and_n(2), {ins[2], ins[3]});
  const NetId shared = n.add_lut(TruthTable::and_n(2), {s1, s2});
  // Deep consumer: a few more levels; shallow consumer: one gate on top.
  NetId deep = shared;
  for (int i = 0; i < 6; ++i) {
    deep = n.add_lut(TruthTable::xor_n(2), {deep, ins[i % 4]});
  }
  const NetId shallow = n.add_lut(TruthTable::inverter(), {shared});
  n.add_output("deep", deep);
  n.add_output("shallow", shallow);

  FlowMapOptions plain;
  FlowMapOptions recover;
  recover.area_recovery = true;
  const auto a = flowmap_map(n, plain);
  const auto b = flowmap_map(n, recover);
  EXPECT_EQ(b.depth, a.depth);
  EXPECT_LE(b.lut_count, a.lut_count);
}

TEST(FlowMapTest, RejectsUnboundedSubjectGraph) {
  Netlist n;
  std::vector<NetId> ins;
  for (int i = 0; i < 6; ++i) {
    ins.push_back(n.add_input("i" + std::to_string(i)));
  }
  n.add_output("o", n.add_lut(TruthTable::and_n(6), ins));
  FlowMapOptions opt;
  opt.k = 4;
  EXPECT_THROW(flowmap_map(n, opt), std::invalid_argument);
}

TEST(FlowMapTest, RejectsKOutsideTruthTableRange) {
  // A LUT's TruthTable holds at most kMaxInputs inputs; a larger k must
  // fail loudly instead of storing truncated tables.
  const Netlist n = decompose_to_binary(random_sequential_circuit(3));
  FlowMapOptions opt;
  for (const std::uint32_t k : {0u, 1u, TruthTable::kMaxInputs + 1, 8u}) {
    opt.k = k;
    EXPECT_THROW(flowmap_map(n, opt), std::invalid_argument) << "k=" << k;
  }
  opt.k = TruthTable::kMaxInputs;
  const FlowMapResult mapped = flowmap_map(n, opt);
  for (const Node& node : mapped.mapped.nodes()) {
    EXPECT_LE(node.fanins.size(), TruthTable::kMaxInputs);
  }
}

}  // namespace
}  // namespace mcrt
