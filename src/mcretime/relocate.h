// Register relocation: implementing a retiming by valid mc-steps (§5.2).
//
// Given legal retiming labels, registers are moved one layer at a time by
// a worklist scheduler (a vertex moves only toward its target, and only
// when the step is a valid mc-step). Reset values travel with the moves:
//
//  - forward steps imply new values through the gate (3-valued);
//  - backward steps justify values one gate at a time with BDDs,
//    maximizing don't-cares (local justification);
//  - on a conflict (incompatible values meeting at a layer, or an
//    unjustifiable target), a *global justification* re-solves the values
//    of every register entangled with the conflict - the provenance
//    closure over recorded moves, traced back to original registers whose
//    values are hard constraints - as one BDD problem;
//  - if even that fails (or the closure exceeds the variable budget), the
//    relocation aborts and reports the offending vertex so the driver can
//    add a retiming bound and recompute (paper: "we set an upper retiming
//    bound on the vertex where the conflict occurred").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mcretime/mcgraph.h"
#include "netlist/netlist.h"

namespace mcrt {

struct RelocateStats {
  std::size_t backward_steps = 0;
  std::size_t forward_steps = 0;
  /// Backward justifications answered locally (single gate).
  std::size_t local_justifications = 0;
  /// Conflicts that required a global justification.
  std::size_t global_justifications = 0;
};

struct RelocateResult {
  bool success = false;
  RelocateStats stats;
  /// On failure: the vertex whose backward (or forward) move could not be
  /// justified / scheduled, and the move count it did achieve - the driver
  /// turns this into a tightened bound and recomputes the retiming.
  VertexId failed_vertex;
  std::int64_t achieved = 0;
  bool failed_backward = true;
  std::string failure_reason;
};

/// Executes retiming `r` (indexed by vertex, r[host]=0) on `graph`,
/// mutating its register sequences and reset values. `netlist` supplies the
/// gate functions (graph vertices reference netlist nodes).
RelocateResult relocate_registers(McGraph& graph, const Netlist& netlist,
                                  const std::vector<std::int64_t>& r,
                                  std::size_t global_var_budget = 96);

/// Bounds a retry loop accumulates from relocation failures: vertex id ->
/// tightened upper (or lower) bound on r(v).
using BoundOverlay = std::map<std::uint32_t, std::int64_t>;

/// Turns a failed relocation into a tightened bound at the offending vertex:
/// r(v) <= achieved after a failed backward justification, r(v) >= achieved
/// after a failed forward schedule. Returns "" on progress; returns the
/// error to report, and changes nothing, when the vertex already carries an
/// equal or tighter bound.
std::string tighten_failed_bound(const RelocateResult& relocation,
                                 BoundOverlay& upper, BoundOverlay& lower);

/// Table 2's moved #Step: the sum of |r(v)| over gate vertices (separator
/// hops are bookkeeping, not circuit moves).
std::size_t moved_layer_count(const McGraph& graph,
                              const std::vector<std::int64_t>& r);

}  // namespace mcrt
