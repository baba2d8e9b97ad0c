#include "tech/sta.h"

#include <algorithm>
#include <stdexcept>

namespace mcrt {

TimingReport analyze_timing(const Netlist& netlist) {
  TimingReport report;
  report.arrival.assign(netlist.net_count(), 0);
  const auto order = netlist.combinational_order();
  if (!order) throw std::invalid_argument("sta: combinational cycle");
  for (const NodeId id : *order) {
    const Node& node = netlist.node(id);
    if (node.kind != NodeKind::kLut) continue;
    std::int64_t arrival = 0;
    for (const NetId f : node.fanins) {
      arrival = std::max(arrival, report.arrival[f.index()]);
    }
    report.arrival[node.output.index()] = arrival + node.delay;
  }
  auto endpoint = [&](NetId net) {
    if (!net.valid()) return;
    report.period = std::max(report.period, report.arrival[net.index()]);
  };
  for (const NodeId po : netlist.outputs()) {
    endpoint(netlist.node(po).fanins[0]);
  }
  for (const Register& ff : netlist.registers()) {
    endpoint(ff.d);
    endpoint(ff.en);
    endpoint(ff.sync_ctrl);
    endpoint(ff.async_ctrl);
  }
  return report;
}

std::int64_t compute_period(const Netlist& netlist) {
  return analyze_timing(netlist).period;
}

std::uint32_t lut_depth(const Netlist& netlist) {
  std::vector<std::uint32_t> level(netlist.net_count(), 0);
  const auto order = netlist.combinational_order();
  if (!order) throw std::invalid_argument("sta: combinational cycle");
  std::uint32_t depth = 0;
  for (const NodeId id : *order) {
    const Node& node = netlist.node(id);
    if (node.kind != NodeKind::kLut || node.fanins.empty()) continue;
    std::uint32_t inner = 0;
    for (const NetId f : node.fanins) {
      inner = std::max(inner, level[f.index()]);
    }
    level[node.output.index()] = inner + 1;
    depth = std::max(depth, inner + 1);
  }
  return depth;
}

}  // namespace mcrt
