// Per-circuit Delay / #FF / #LUT of bench/table2_mc_retiming, computed
// through the same bench helpers (pipeline passes, bulk runner) the table
// uses, as one JSON array on stdout. The benchmark's self-test compares
// these rows with the harness's paper-flow rows, which reach the same
// numbers through direct calls into the library.
#include <cstdio>

#include "base/json.h"
#include "flow_common.h"

int main() {
  using namespace mcrt;
  using namespace mcrt::bench;
  const std::vector<MappedCircuit> suite = prepare_mapped_suite(paper_suite());
  const std::vector<RetimedCircuit> retimed = retime_and_remap_suite(suite);
  Json rows = Json::array();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    Json row = Json::object();
    row.set("name", suite[i].name);
    row.set("ok", retimed[i].ok && retimed[i].equivalent);
    row.set("delay", retimed[i].circuit.delay);
    row.set("ff", retimed[i].circuit.ff);
    row.set("lut", retimed[i].circuit.lut);
    rows.push_back(row);
  }
  std::printf("%s\n", rows.write().c_str());
  return 0;
}
