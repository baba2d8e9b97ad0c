// FlowMap: depth-optimal k-LUT technology mapping (Cong & Ding, 1994).
//
// The paper runs mc-retiming on a *mapped* netlist of FPGA primitives and
// remaps the combinational part afterwards ("remap" in §6). This module
// provides both steps: it covers a k-bounded subject graph with k-input
// LUTs of provably minimum depth, computing for every node a label (its
// optimal LUT depth) via one small max-flow per node, then realizes the
// chosen k-feasible cuts as LUTs.
//
// Mapping boundaries: primary inputs, constants and register outputs are
// sources; primary outputs, register D pins and register control pins (EN,
// sync, async, clk) are roots. Registers pass through unchanged.
//
// The independent check (tests/tech/flowmap_differential_test.cpp) reaches
// the same optimal depth by exhaustive k-feasible cut enumeration instead
// of max-flow, and checks every mapping structurally (recomputed LUT
// depth, fanin bound) and by simulation against its input.
#pragma once

#include <cstdint>

#include "base/cancel.h"
#include "netlist/netlist.h"

namespace mcrt {

struct FlowMapOptions {
  /// LUT input count (XC4000: 4), in [2, TruthTable::kMaxInputs].
  std::uint32_t k = 4;
  std::int64_t lut_delay = 10;    ///< delay units per LUT level
  /// Depth-preserving area recovery: while realizing LUTs, a net with
  /// depth slack whose fanins are all demanded anyway reuses its trivial
  /// cut instead of duplicating the depth-optimal cone. Never increases
  /// the mapping depth; helps on duplication-heavy cones, can fragment
  /// otherwise - off by default, measure per design.
  bool area_recovery = false;
  /// Cooperative cancellation: polled once per labeled node (each label is
  /// one small max-flow); a stop request unwinds with CancelledError.
  const CancelToken* cancel = nullptr;
};

struct FlowMapResult {
  Netlist mapped;
  std::uint32_t depth = 0;        ///< maximum label = LUT depth of mapping
  std::size_t lut_count = 0;
};

/// Maps the combinational part of `input` (which must be k-bounded: every
/// node has at most k fanins; run decompose_to_binary first for arbitrary
/// netlists) into k-LUTs. Node delays in the result are set to
/// options.lut_delay for LUTs and 0 elsewhere. Throws std::invalid_argument
/// when options.k is outside [2, TruthTable::kMaxInputs] or the subject
/// graph is not k-bounded.
FlowMapResult flowmap_map(const Netlist& input, const FlowMapOptions& options);

}  // namespace mcrt
