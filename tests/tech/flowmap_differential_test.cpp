// FlowMap against oracles that share none of its machinery:
//  - optimal depth: a labeller that enumerates k-feasible cuts,
//    label(v) = 1 + min over cuts C of max label(u in C), reaches the same
//    optimum that FlowMap computes by max-flow, by a different algorithm;
//  - structure: the LUT depth recomputed from the mapped netlist equals
//    the reported depth, every LUT has at most k inputs, and lut_count
//    matches the netlist;
//  - behaviour: the mapping is sim-equivalent to its subject graph;
//  - identity: the structural hash of every mapping is pinned, so a change
//    to the mapped structure, even an equivalent one, fails here until the
//    table is updated on purpose.
#include "tech/flowmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "../common/test_circuits.h"
#include "netlist/structural_hash.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/sta.h"
#include "workload/generator.h"
#include "workload/random_circuit.h"

namespace mcrt {
namespace {

using Cut = std::vector<std::uint32_t>;  ///< sorted net ids

/// Drops duplicate cuts and every cut that strictly contains another. A
/// superset cut never has a smaller max label, and merging it never gives
/// a cut that its subset's merge does not beat, so the minimum over the
/// survivors is the minimum over all k-feasible cuts.
void keep_minimal(std::vector<Cut>& cuts) {
  std::sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Cut> kept;
  for (Cut& cut : cuts) {
    const bool dominated =
        std::any_of(kept.begin(), kept.end(), [&](const Cut& smaller) {
          return std::includes(cut.begin(), cut.end(), smaller.begin(),
                               smaller.end());
        });
    if (!dominated) kept.push_back(std::move(cut));
  }
  cuts = std::move(kept);
}

/// Optimal k-LUT depth of `subject` by cut enumeration: sources (PIs,
/// constants, register Q) have label 0; every cut of a gate is a union of
/// one cut per fanin; the depth is the largest label over the roots
/// flowmap.h names (PO drivers, register D and control pins).
std::uint32_t optimal_depth(const Netlist& subject, std::uint32_t k) {
  std::vector<std::uint32_t> label(subject.net_count(), 0);
  std::vector<std::vector<Cut>> cuts(subject.net_count());
  for (std::uint32_t net = 0; net < subject.net_count(); ++net) {
    cuts[net] = {Cut{net}};
  }
  const auto order = subject.combinational_order();
  for (const NodeId id : *order) {
    const Node& node = subject.node(id);
    if (node.kind != NodeKind::kLut || node.fanins.empty()) continue;
    std::vector<Cut> merged = {Cut{}};
    for (const NetId f : node.fanins) {
      std::vector<Cut> next;
      for (const Cut& partial : merged) {
        for (const Cut& fanin_cut : cuts[f.index()]) {
          Cut u;
          std::set_union(partial.begin(), partial.end(), fanin_cut.begin(),
                         fanin_cut.end(), std::back_inserter(u));
          if (u.size() <= k) next.push_back(std::move(u));
        }
      }
      keep_minimal(next);
      merged = std::move(next);
    }
    std::uint32_t best = ~0u;
    for (const Cut& cut : merged) {
      std::uint32_t worst = 0;
      for (const std::uint32_t u : cut) worst = std::max(worst, label[u]);
      best = std::min(best, worst);
    }
    const std::uint32_t out = node.output.index();
    label[out] = best + 1;
    merged.push_back(Cut{out});
    cuts[out] = std::move(merged);
  }
  std::uint32_t depth = 0;
  const auto root = [&](NetId net) {
    if (net.valid()) depth = std::max(depth, label[net.index()]);
  };
  for (const NodeId po : subject.outputs()) root(subject.node(po).fanins[0]);
  for (const Register& ff : subject.registers()) {
    root(ff.d);
    root(ff.clk);
    root(ff.en);
    root(ff.sync_ctrl);
    root(ff.async_ctrl);
  }
  return depth;
}

/// structural_hash of the mapping per subject and k, without and with
/// area recovery.
struct PinnedHashes {
  const char* subject;
  std::uint32_t k;
  const char* plain;
  const char* recovered;
};

constexpr PinnedHashes kPinned[] = {
    {"fig1", 3, "fb38bf1bfac2cc7ad24e1b52b2e8ac38", "fb38bf1bfac2cc7ad24e1b52b2e8ac38"},
    {"fig1", 4, "fb38bf1bfac2cc7ad24e1b52b2e8ac38", "fb38bf1bfac2cc7ad24e1b52b2e8ac38"},
    {"fig1", 5, "fb38bf1bfac2cc7ad24e1b52b2e8ac38", "fb38bf1bfac2cc7ad24e1b52b2e8ac38"},
    {"chain9x3", 3, "e67c8817658a0d014296c4fb58da07fd", "e67c8817658a0d014296c4fb58da07fd"},
    {"chain9x3", 4, "e67c8817658a0d014296c4fb58da07fd", "e67c8817658a0d014296c4fb58da07fd"},
    {"chain9x3", 5, "e67c8817658a0d014296c4fb58da07fd", "e67c8817658a0d014296c4fb58da07fd"},
    {"fig5", 3, "a049252af8352d790e3fe0a40e877f04", "a049252af8352d790e3fe0a40e877f04"},
    {"fig5", 4, "a049252af8352d790e3fe0a40e877f04", "a049252af8352d790e3fe0a40e877f04"},
    {"fig5", 5, "a049252af8352d790e3fe0a40e877f04", "a049252af8352d790e3fe0a40e877f04"},
    {"random1", 3, "98367bf7dcd0d37a885b851cbd9e5cbc", "62de32d52f0f3a7cb41a73dca0506d90"},
    {"random1", 4, "eb9f4a9259562ed7e31a42644794a0de", "eb9f4a9259562ed7e31a42644794a0de"},
    {"random1", 5, "065e1210de60d627c83b2a45e7966b93", "065e1210de60d627c83b2a45e7966b93"},
    {"random2", 3, "da52d01b6c8bb621c46a1b3fb7482b96", "01b646f5db1a41a5358e4c0e4c833f60"},
    {"random2", 4, "d74e585e68f65d801762749cedde6419", "d74e585e68f65d801762749cedde6419"},
    {"random2", 5, "848e91670731e6e4ebbd1ab6911be384", "848e91670731e6e4ebbd1ab6911be384"},
    {"random3", 3, "bae29e6429d154c91498bb845e3f662f", "bae29e6429d154c91498bb845e3f662f"},
    {"random3", 4, "fbea5d75d2a5c0e65be819a168a9caa1", "fbea5d75d2a5c0e65be819a168a9caa1"},
    {"random3", 5, "02ba233444571cacf43f2d761b3a13ce", "02ba233444571cacf43f2d761b3a13ce"},
    {"random4", 3, "5ef93303e5e2bb19d545852e36eeba1c", "5ef93303e5e2bb19d545852e36eeba1c"},
    {"random4", 4, "fdf7d8ffb87cecdd614e345feb12e730", "fdf7d8ffb87cecdd614e345feb12e730"},
    {"random4", 5, "75abc26cdafe7a076730a264fed54c9e", "75abc26cdafe7a076730a264fed54c9e"},
    {"random5", 3, "eb290024a1463f5eac1e9eb8f2975a13", "eb290024a1463f5eac1e9eb8f2975a13"},
    {"random5", 4, "f09872668b244babcf3c6abc59015818", "f09872668b244babcf3c6abc59015818"},
    {"random5", 5, "9aed393a39e6bbfb257660974832bfa2", "9aed393a39e6bbfb257660974832bfa2"},
    {"random6", 3, "44a2f3c554e464a65f6c513ecbc81c98", "5163a1b32a44d8ddb3c5a5d6f4ce36a0"},
    {"random6", 4, "73e8693bd98a77ef49f9aec9a82fe44b", "73e8693bd98a77ef49f9aec9a82fe44b"},
    {"random6", 5, "5d8d6463a56a4e08c8c7a3aa849f7f9b", "5d8d6463a56a4e08c8c7a3aa849f7f9b"},
    {"random7", 3, "ed6204fcbed85636b9ac628208399895", "ed6204fcbed85636b9ac628208399895"},
    {"random7", 4, "6b18db6644282026ac2114645aa910f3", "6b18db6644282026ac2114645aa910f3"},
    {"random7", 5, "c5fdb9424939b77619779461dd032e06", "c5fdb9424939b77619779461dd032e06"},
    {"random8", 3, "c976572f08b1878887b17cca8a9ad721", "c976572f08b1878887b17cca8a9ad721"},
    {"random8", 4, "399286c9a10c48fecda6e273cd7ddd38", "399286c9a10c48fecda6e273cd7ddd38"},
    {"random8", 5, "fb0da4268fad3b72f94cf41f4bce1694", "fb0da4268fad3b72f94cf41f4bce1694"},
    {"random9", 3, "50b46e8f4a8802844d00b18b49a5f714", "50b46e8f4a8802844d00b18b49a5f714"},
    {"random9", 4, "5228d4b91303cb571fbbe6dd6a93f7d7", "5228d4b91303cb571fbbe6dd6a93f7d7"},
    {"random9", 5, "393ea0257a048fd30eeb778e0e2fb05e", "393ea0257a048fd30eeb778e0e2fb05e"},
    {"random10", 3, "405586c189f6911d38a2fd082aa8e77a", "405586c189f6911d38a2fd082aa8e77a"},
    {"random10", 4, "4dd45bf34281401ab71b26c1b5c8986e", "4dd45bf34281401ab71b26c1b5c8986e"},
    {"random10", 5, "9ff6c819d7b6d992fe4d5d284a517114", "9ff6c819d7b6d992fe4d5d284a517114"},
    {"random11", 3, "fe588470531cc6cfc47f16ff1de9ed35", "fe588470531cc6cfc47f16ff1de9ed35"},
    {"random11", 4, "a0f18b3c95217804523556fdaba82772", "a0f18b3c95217804523556fdaba82772"},
    {"random11", 5, "4cdb79ab7ee3dfd2c6bb54001558d9ec", "4cdb79ab7ee3dfd2c6bb54001558d9ec"},
    {"random12", 3, "a92075be89a65f1247933c283ae5e3db", "a92075be89a65f1247933c283ae5e3db"},
    {"random12", 4, "0c4f3f931011dedd853335cb6fe7fff3", "0c4f3f931011dedd853335cb6fe7fff3"},
    {"random12", 5, "9deaf3ee4e5c5f691a30477e9fa4ce50", "9deaf3ee4e5c5f691a30477e9fa4ce50"},
    {"r00", 3, "37f022913ec3397c021a7187c741861f", "37f022913ec3397c021a7187c741861f"},
    {"r00", 4, "9fc7a5a772ac490b0624d5acfbae9550", "9fc7a5a772ac490b0624d5acfbae9550"},
    {"r00", 5, "9f32c4bf8a2b0b5658cd38950bb88212", "9f32c4bf8a2b0b5658cd38950bb88212"},
    {"r01", 3, "84b5f716a2a16aee33ee6c57875f3ad1", "84b5f716a2a16aee33ee6c57875f3ad1"},
    {"r01", 4, "8e77f6e2032a4362be96984504a060a6", "8e77f6e2032a4362be96984504a060a6"},
    {"r01", 5, "9c70011e7e9c103f9236fe01f81d05b9", "9c70011e7e9c103f9236fe01f81d05b9"},
    {"r02", 3, "805c6da6dfd03e8346ab378fb2c7fb83", "805c6da6dfd03e8346ab378fb2c7fb83"},
    {"r02", 4, "f06173460abfb6427c9f00c8112c06fb", "f06173460abfb6427c9f00c8112c06fb"},
    {"r02", 5, "dadf5d54231e2443aebb414e0011cd1e", "dadf5d54231e2443aebb414e0011cd1e"},
    {"r03", 3, "c814fbecc383bc6e3a49c212dc26b01c", "dcbc1fd31177d9a8b97aace9396f6f21"},
    {"r03", 4, "4b1f13954598caedc28a66b8421c7d68", "4b1f13954598caedc28a66b8421c7d68"},
    {"r03", 5, "9f7ec14537fbe5c0e07266499142a8bd", "9f7ec14537fbe5c0e07266499142a8bd"},
    {"r04", 3, "71ddb7562d9bb7de17482fe3f65dbb11", "71ddb7562d9bb7de17482fe3f65dbb11"},
    {"r04", 4, "97beea7aaf96c80f72b17b8a30317ea5", "97beea7aaf96c80f72b17b8a30317ea5"},
    {"r04", 5, "97beea7aaf96c80f72b17b8a30317ea5", "97beea7aaf96c80f72b17b8a30317ea5"},
    {"r05", 3, "2dd1ae385c02d92be1942bd2ca3a201e", "2dd1ae385c02d92be1942bd2ca3a201e"},
    {"r05", 4, "2dd1ae385c02d92be1942bd2ca3a201e", "2dd1ae385c02d92be1942bd2ca3a201e"},
    {"r05", 5, "2dd1ae385c02d92be1942bd2ca3a201e", "2dd1ae385c02d92be1942bd2ca3a201e"},
};

struct Subject {
  std::string name;
  Netlist netlist;  ///< k-bounded subject graph (decompose_to_binary)
};

void check_mappings(const Subject& subject) {
  for (const std::uint32_t k : {3u, 4u, 5u}) {
    const auto pin = std::find_if(
        std::begin(kPinned), std::end(kPinned), [&](const PinnedHashes& p) {
          return p.subject == subject.name && p.k == k;
        });
    ASSERT_NE(pin, std::end(kPinned)) << subject.name << " k=" << k;
    const std::uint32_t optimum = optimal_depth(subject.netlist, k);
    for (const bool recovery : {false, true}) {
      SCOPED_TRACE(subject.name + " k=" + std::to_string(k) +
                   (recovery ? " area-recovery" : ""));
      FlowMapOptions opt;
      opt.k = k;
      opt.area_recovery = recovery;
      const FlowMapResult mapped = flowmap_map(subject.netlist, opt);

      EXPECT_EQ(mapped.depth, optimum);
      EXPECT_EQ(lut_depth(mapped.mapped), mapped.depth);
      std::size_t luts = 0;
      for (const Node& node : mapped.mapped.nodes()) {
        if (node.kind != NodeKind::kLut || node.fanins.empty()) continue;
        ++luts;
        EXPECT_LE(node.fanins.size(), k);
      }
      EXPECT_EQ(luts, mapped.lut_count);
      EXPECT_EQ(structural_hash(mapped.mapped).hex(),
                recovery ? pin->recovered : pin->plain);

      EquivalenceOptions eq;
      eq.init_registers_by_name = true;
      eq.runs = 4;
      eq.cycles = 32;
      const EquivalenceResult verdict =
          check_sequential_equivalence(subject.netlist, mapped.mapped, eq);
      EXPECT_TRUE(verdict.equivalent) << verdict.counterexample;
    }
  }
}

TEST(FlowMapDifferentialTest, OracleReproducesHandDepths) {
  // A 16-input AND tree of 2-input gates: depth 4 at k=2, 2 at k>=4.
  Netlist tree;
  std::vector<NetId> layer;
  for (int i = 0; i < 16; ++i) {
    layer.push_back(tree.add_input("i" + std::to_string(i)));
  }
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(
          tree.add_lut(TruthTable::and_n(2), {layer[i], layer[i + 1]}));
    }
    layer = std::move(next);
  }
  tree.add_output("o", layer[0]);
  EXPECT_EQ(optimal_depth(tree, 2), 4u);
  EXPECT_EQ(optimal_depth(tree, 4), 2u);
  EXPECT_EQ(optimal_depth(tree, 5), 2u);
}

TEST(FlowMapDifferentialTest, HandCircuits) {
  check_mappings({"fig1", decompose_to_binary(testing::fig1_circuit())});
  check_mappings(
      {"chain9x3", decompose_to_binary(testing::chain_circuit(9, 3))});
  check_mappings({"fig5", decompose_to_binary(testing::fig5_circuit())});
}

TEST(FlowMapDifferentialTest, RandomCircuitsBothKAndRecovery) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    check_mappings({"random" + std::to_string(seed),
                    decompose_to_binary(random_sequential_circuit(seed))});
  }
}

TEST(FlowMapDifferentialTest, WorkloadCircuits) {
  for (const CircuitProfile& profile : random_suite(6, 17)) {
    check_mappings(
        {profile.name, decompose_to_binary(generate_circuit(profile))});
  }
}

TEST(FlowMapDifferentialTest, CompactEngineStillBehaviorallyCorrect) {
  // The behaviour check on a circuit outside the pinned set, with longer
  // stimulus than check_mappings uses.
  const Netlist subject =
      decompose_to_binary(random_sequential_circuit(77));
  FlowMapOptions opt;
  opt.k = 4;
  const FlowMapResult mapped = flowmap_map(subject, opt);
  EquivalenceOptions eq;
  eq.init_registers_by_name = true;
  eq.runs = 16;
  eq.cycles = 64;
  const EquivalenceResult verdict =
      check_sequential_equivalence(subject, mapped.mapped, eq);
  EXPECT_TRUE(verdict.equivalent) << verdict.counterexample;
}

}  // namespace
}  // namespace mcrt
