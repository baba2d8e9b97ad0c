// The FEAS algorithm (Leiserson & Saxe, "Retiming Synchronous Circuitry"),
// extended to the per-vertex retiming bounds of paper §4.1.
//
// Decides whether a clock period phi is feasible: repeatedly compute
// combinational arrival times under the current tentative retiming,
// increment r(v) for every vertex whose arrival exceeds phi, then repair
// legality by raising labels until every edge weight is non-negative. The
// bounds enter that repair as timing-free arcs v -> host (weight r_max) and
// host -> v (weight -r_min), so a bounded probe costs what a bound-free one
// does. Every raise records its cause (the critical path's origin, or the
// arc's tail); a cycle among those parents is a positive cycle of valid
// difference constraints, so the probe returns "infeasible" at the end of
// the round that closes it instead of running |V| - 1 rounds. A fixed
// point is a legal, bounded retiming of period <= phi. docs/ALGORITHMS.md
// ("Feasibility") has the proofs. The rounds iterate over the RetimeGraph's
// flat CSR view with reused scratch arrays.
//
// Its independent oracle is the difference-constraint formulation in
// minperiod.h (bounded_feasible(): circuit, bound and W/D period
// constraints solved by SPFA): tests, `mcrt bench` and the fuzzer check
// that both give the same verdict, with and without bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/cancel.h"
#include "retime/retime_graph.h"

namespace mcrt {

/// Returns retiming labels (normalized to r(host) = 0, legal, within the
/// graph's bounds) achieving period <= phi, or std::nullopt if no such
/// retiming exists. `cancel` (may be null) is polled once per round.
/// Throws std::logic_error if the input has a zero-weight cycle, or if a
/// label outgrows the bound the parent argument proves (a defensive cap).
std::optional<std::vector<std::int64_t>> feas_check(
    const RetimeGraph& graph, std::int64_t phi,
    const CancelToken* cancel = nullptr);

}  // namespace mcrt
