// Bit-parallel ternary simulation on the data-oriented compact core.
//
// 64 independent stimulus vectors per pass in dual-rail (ones, zeros)
// TritWords (sim/trit_word.h), with the scalar Simulator's EN/sync/async
// register-class semantics expressed as masked ite updates and the same
// settle bound and X-degrade policy. It iterates the CompactNetlist's flat
// arrays rather than chasing Netlist pointers:
//  - truth tables come from the flat uint64 arena (no TruthTable objects);
//  - fanins are CSR spans read into a fixed 6-slot pin buffer (no per-node
//    vector rebuilding);
//  - netlists without async set/clear settle in a single topological pass
//    (the async-override fixed-point iteration exists only because async
//    controls can feed back into their own cones; without them the first
//    pass *is* the fixed point, so the verification iteration is skipped).
//
// Its oracle is the scalar Simulator, a different formulation (one run at
// a time, TruthTable::eval_ternary per node): the cross-engine
// differential (tests/sim/sim_differential_test.cpp) asserts lane-exact
// agreement with it on every register class.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compact.h"
#include "sim/trit_word.h"

namespace mcrt {

class WordSimulator {
 public:
  /// Builds a private compact snapshot of `netlist`.
  explicit WordSimulator(const Netlist& netlist);
  /// Adopts an existing snapshot (caller keeps no obligations; the
  /// simulator owns its copy).
  explicit WordSimulator(CompactNetlist compact);

  void reset_to_unknown();
  void set_input(NetId input_net, TritWord value);
  /// Settles combinational logic + asynchronous overrides (all 64 lanes).
  void settle();
  [[nodiscard]] TritWord net_value(NetId net) const {
    return net_values_[net.index()];
  }
  [[nodiscard]] std::vector<TritWord> output_values() const;
  void clock_edge();
  std::vector<TritWord> step();

  [[nodiscard]] TritWord register_state(RegId reg) const {
    return reg_state_[reg.index()];
  }
  void set_register_state(RegId reg, TritWord value) {
    reg_state_[reg.index()] = value;
  }

  [[nodiscard]] const CompactNetlist& compact() const noexcept {
    return compact_;
  }

 private:
  [[nodiscard]] TritWord reg_output(std::uint32_t reg_index) const;
  /// One topological evaluation sweep; returns true if any net changed.
  bool sweep();

  CompactNetlist compact_;
  std::vector<TritWord> net_values_;
  std::vector<TritWord> reg_state_;
  std::vector<TritWord> input_values_;
};

}  // namespace mcrt
