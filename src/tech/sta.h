// Static timing analysis on mapped netlists.
//
// The delay model matches how the paper uses timing: each combinational
// node carries a propagation delay d(v) (assigned by the mapper), register
// and I/O pins are timing endpoints, and the clock period of a circuit is
// the maximum combinational path delay between endpoints — the quantity
// reported in the paper's "Delay" columns and minimized by retiming.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace mcrt {

struct TimingReport {
  /// Worst combinational path delay (the achievable clock period).
  std::int64_t period = 0;
  /// Arrival time per net: latest output transition relative to the clock
  /// edge, 0 for sequential sources (PI, register Q, constants).
  std::vector<std::int64_t> arrival;
};

/// Computes arrival times and the worst path delay. Endpoints are primary
/// outputs, register D pins and register control pins.
TimingReport analyze_timing(const Netlist& netlist);

/// Convenience: just the period.
std::int64_t compute_period(const Netlist& netlist);

/// Gives every LUT with at least one fanin and delay 0 the delay `delay`.
/// BLIF carries no delays, so this is how the retime passes and
/// `mcrt timing` make the period of an unmapped netlist meaningful.
void assign_default_lut_delays(Netlist& netlist, std::int64_t delay);

/// Unit-delay depth: the most non-constant LUTs on any combinational path,
/// ignoring node delays. For a FlowMap result this is the mapping depth.
std::uint32_t lut_depth(const Netlist& netlist);

}  // namespace mcrt
