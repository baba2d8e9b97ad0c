// The FEAS algorithm (Leiserson & Saxe, "Retiming Synchronous Circuitry").
//
// Decides whether a clock period phi is feasible for an (unbounded)
// retiming graph in O(V * E): repeatedly compute combinational arrival
// times under the current tentative retiming and increment r(v) for every
// vertex whose arrival exceeds phi. After |V| - 1 rounds, phi is feasible
// iff the retimed clock period is at most phi. The rounds iterate over the
// RetimeGraph's flat CSR view with reused scratch arrays.
//
// FEAS cannot honor per-vertex retiming bounds. The difference-constraint
// formulation in minperiod.h (bounded_feasible(): circuit, bound and W/D
// period constraints solved by SPFA) can, and on a bound-free graph it is
// FEAS's independent oracle: tests and `mcrt bench` check that both give
// the same verdict on every probe, and the fuzzer that the FEAS-driven min
// period P is constraint-feasible while P - 1 is not.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "retime/retime_graph.h"

namespace mcrt {

/// Returns the retiming labels achieving period <= phi, or std::nullopt if
/// phi is infeasible for the graph (ignoring bounds).
std::optional<std::vector<std::int64_t>> feas_check(const RetimeGraph& graph,
                                                    std::int64_t phi);

}  // namespace mcrt
