// The paper report (mcrt-bench-paper/1): Tables 1-3, Figs. 1/4/5, the
// area/period sweep and the class-count ablation as one document.
//
// The C1-C10 suite is mapped once and retimed once with the default options
// (minarea at the minimum period, then remap). That one run is Table 2,
// Fig. 4's "with" column, Fig. 5's full-flow column and the sweep's minimum
// point. Only the real variants solve again: the EN-decomposed flow
// (Table 3), no sharing modification (Fig. 4), local-only justification
// (Fig. 5) and the swept target periods.
//
// Delays and register counts are deterministic solver outputs, so the
// committed baseline gates Table 2's delay and #FF exactly. Wall-clock
// seconds and the §6 CPU breakdown are recorded, never gated.
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "base/strings.h"
#include "base/thread_pool.h"
#include "perf/bench.h"
#include "perf/paper_flow.h"
#include "transform/decompose_controls.h"
#include "transform/sweep.h"

namespace mcrt {
namespace {

using bench::MappedCircuit;
using bench::RetimedCircuit;

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// Share of `part` in `part + rest`, in percent (100 when both are zero).
double percent(double part, double rest) {
  return part + rest == 0 ? 100.0 : 100.0 * part / (part + rest);
}

// Fig. 4: how far the cost model's register estimate falls short of the
// physical count, in percent.
double undercount_pct(double estimate, double physical) {
  return 100.0 * (1.0 - ratio(estimate, physical));
}

Json counts_json(std::size_t ff, std::size_t lut, std::int64_t delay) {
  Json object = Json::object();
  object.set("ff", ff);
  object.set("lut", lut);
  object.set("delay", delay);
  return object;
}

Json error_json(const std::string& error) {
  Json object = Json::object();
  object.set("error", error);
  return object;
}

// A variant's numbers: the retimed netlist's counts, or its error.
Json solve_json(const McRetimeResult& r) {
  if (!r.success) return error_json(r.error);
  const auto stats = r.netlist.stats();
  return counts_json(stats.registers, stats.luts, compute_period(r.netlist));
}

// A LUT with the mapper's unit delay.
NetId add_gate(Netlist& n, TruthTable function, std::vector<NetId> fanins) {
  const NetId out = n.add_lut(std::move(function), std::move(fanins));
  n.set_node_delay(NodeId{n.net(out).driver.index}, 10);
  return out;
}

// Reduces `layer` to one net through a balanced tree of 2-input gates.
NetId reduction_tree(Netlist& n, std::vector<NetId> layer,
                     const TruthTable& gate) {
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(add_gate(n, gate, {layer[i], layer[i + 1]}));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

// Fig. 1: a layer of `width` enabled registers feeding a balanced AND tree.
// mc-retiming moves the layer forward with its EN input (Fig. 1b); the
// decomposed flow pays a register and a mux per fanout split (Fig. 1d).
Netlist enabled_tree(std::size_t width) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  const NetId en = n.add_input("en");
  std::vector<NetId> layer;
  for (std::size_t i = 0; i < width; ++i) {
    Register ff;
    ff.d = n.add_input("in" + std::to_string(i));
    ff.clk = clk;
    ff.en = en;
    layer.push_back(n.add_register(std::move(ff)));
  }
  n.add_output("out",
               reduction_tree(n, std::move(layer), TruthTable::and_n(2)));
  return n;
}

constexpr std::size_t kBranches = 8;
constexpr std::size_t kTailDepth = 8;

// Class-count ablation: kBranches parallel branches, each a gate and two
// enabled registers, reconverge into an unregistered reduction tree and a
// kTailDepth-deep tail. Branch b uses enable (b mod K), so K = 1 is the
// single-class best case and larger K blocks the convergence gates: the
// registers keep their enables at zero area cost but lose movement freedom.
Netlist class_count_circuit(std::size_t enable_count) {
  Netlist n;
  const NetId clk = n.add_input("clk");
  std::vector<NetId> enables;
  for (std::size_t e = 0; e < enable_count; ++e) {
    enables.push_back(n.add_input(str_format("en%zu", e)));
  }
  std::vector<NetId> layer;
  for (std::size_t b = 0; b < kBranches; ++b) {
    const NetId x = n.add_input(str_format("x%zu", b));
    const NetId y = n.add_input(str_format("y%zu", b));
    NetId net = add_gate(n, TruthTable::xor_n(2), {x, y});
    for (int s = 0; s < 2; ++s) {
      Register ff;
      ff.d = net;
      ff.clk = clk;
      ff.en = enables[b % enable_count];
      net = n.add_register(std::move(ff));
    }
    layer.push_back(net);
  }
  NetId tail = reduction_tree(n, std::move(layer), TruthTable::xor_n(2));
  for (std::size_t d = 0; d < kTailDepth; ++d) {
    tail = add_gate(n, TruthTable::inverter(), {tail});
  }
  n.add_output("out", tail);
  return n;
}

bool swept(const std::string& circuit) {
  return circuit == "C1" || circuit == "C7" || circuit == "C9";
}

}  // namespace

Json run_paper_bench(const BenchOptions& options) {
  std::vector<CircuitProfile> profiles = paper_suite();
  if (options.quick && profiles.size() > 3) profiles.resize(3);
  const std::size_t n = profiles.size();

  // The shared runs: Table 1 (mapped), Table 2 (default retime + remap) and
  // Table 3 (EN decomposed before mapping, same retime + remap), each a
  // bulk batch on the helpers' work-stealing pool.
  const std::vector<MappedCircuit> table1 =
      bench::prepare_mapped_suite(profiles);
  const std::vector<RetimedCircuit> table2 =
      bench::retime_and_remap_suite(table1);
  const std::vector<MappedCircuit> no_enable = bench::run_suite_flow(
      profiles, "decompose-en; decompose-sync; sweep; map");
  const std::vector<RetimedCircuit> table3 =
      bench::retime_and_remap_suite(no_enable);

  // The variants are independent solves: fan them out over one pool. The
  // sweep runs from Table 2's period up to one step past the unretimed one.
  std::vector<McRetimeResult> no_sharing(n);
  std::vector<McRetimeResult> local_only(n);
  std::vector<std::vector<std::int64_t>> targets(n);
  std::vector<std::vector<McRetimeResult>> sweep_points(n);
  const std::vector<std::size_t> widths = {2, 4, 8, 16, 32};
  std::vector<McRetimeResult> fig1_mc(widths.size());
  std::vector<McRetimeResult> fig1_decomposed(widths.size());
  const std::vector<std::size_t> class_counts = {1, 2, 4, 8};
  std::vector<McRetimeResult> class_solves(class_counts.size());
  {
    ThreadPool pool;
    TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i) {
      const Netlist& mapped = table1[i].netlist;
      group.run([&, i] {
        McRetimeOptions without;
        without.sharing_modification = false;
        no_sharing[i] = mc_retime(mapped, without);
      });
      group.run([&, i] {
        McRetimeOptions local;
        local.global_justification_budget = 0;
        local.max_attempts = 200;
        local_only[i] = mc_retime(mapped, local);
      });
      if (!swept(profiles[i].name) || !table2[i].ok) continue;
      for (std::int64_t target = table2[i].stats.period_after;
           target <= table1[i].delay + 10; target += 10) {
        targets[i].push_back(target);
      }
      sweep_points[i].resize(targets[i].size());
      for (std::size_t t = 0; t < targets[i].size(); ++t) {
        group.run([&, i, t] {
          McRetimeOptions at;
          at.target_period = targets[i][t];
          sweep_points[i][t] = mc_retime(table1[i].netlist, at);
        });
      }
    }
    for (std::size_t w = 0; w < widths.size(); ++w) {
      group.run([&, w] {
        const Netlist original = enabled_tree(widths[w]);
        fig1_mc[w] = mc_retime(original, {});
        fig1_decomposed[w] =
            mc_retime(sweep(decompose_load_enables(original), nullptr), {});
      });
    }
    for (std::size_t k = 0; k < class_counts.size(); ++k) {
      group.run([&, k] {
        class_solves[k] = mc_retime(class_count_circuit(class_counts[k]), {});
      });
    }
    group.wait();
  }

  Json::Array entries;
  PhaseProfile profile_sum;  // §6 CPU breakdown over the Table 2 runs
  for (std::size_t i = 0; i < n; ++i) {
    const MappedCircuit& before = table1[i];
    const RetimedCircuit& after = table2[i];
    Json entry = Json::object();
    entry.set("circuit", before.name);

    Json t1 = counts_json(before.ff, before.lut, before.delay);
    t1.set("async", before.has_async);
    t1.set("en", before.has_en);
    entry.set("table1", std::move(t1));

    if (!after.ok) {
      Json t2 = error_json("retime + remap failed");
      t2.set("eq", false);
      entry.set("table2", std::move(t2));
      entries.push_back(std::move(entry));
      continue;
    }
    const McRetimeStats& stats = after.stats;
    Json t2 = Json::object();
    t2.set("classes", stats.num_classes);
    t2.set("moved_steps", stats.moved_layers);
    t2.set("possible_steps", stats.possible_steps);
    t2.set("ff", after.circuit.ff);
    t2.set("lut", after.circuit.lut);
    t2.set("delay", after.circuit.delay);
    t2.set("rlut", ratio(after.circuit.lut, before.lut));
    t2.set("rdelay", ratio(after.circuit.delay, before.delay));
    t2.set("eq", after.equivalent);
    t2.set("local_justifications", stats.relocate.local_justifications);
    t2.set("global_justifications", stats.relocate.global_justifications);
    t2.set("attempts", stats.attempts);
    t2.set("seconds", after.seconds);
    entry.set("table2", std::move(t2));
    profile_sum.merge(stats.profile);

    const RetimedCircuit& decomposed = table3[i];
    if (decomposed.ok) {
      const MappedCircuit& c = decomposed.circuit;
      Json t3 = counts_json(c.ff, c.lut, c.delay);
      t3.set("rlut1", ratio(c.lut, before.lut));
      t3.set("rdelay1", ratio(c.delay, before.delay));
      t3.set("rlut2", ratio(c.lut, after.circuit.lut));
      t3.set("rdelay2", ratio(c.delay, after.circuit.delay));
      t3.set("eq", decomposed.equivalent);
      entry.set("table3", std::move(t3));
    } else {
      entry.set("table3", error_json("retime + remap failed"));
    }

    const McRetimeResult& without = no_sharing[i];
    if (without.success) {
      Json f4 = Json::object();
      f4.set("with_estimate", stats.register_estimate);
      f4.set("with_physical", stats.registers_after);
      f4.set("without_estimate", without.stats.register_estimate);
      f4.set("without_physical", without.stats.registers_after);
      f4.set("undercount_pct",
             undercount_pct(without.stats.register_estimate,
                            without.stats.registers_after));
      entry.set("fig4", std::move(f4));
    } else {
      entry.set("fig4", error_json(without.error));
    }

    Json f5 = error_json(local_only[i].error);
    if (local_only[i].success) {
      f5 = Json::object();
      f5.set("local_only_attempts", local_only[i].stats.attempts);
    }
    entry.set("fig5", std::move(f5));

    if (!targets[i].empty()) {
      Json sweep_json = Json::object();
      sweep_json.set("unretimed_period", before.delay);
      sweep_json.set("unretimed_ff", before.ff);
      Json::Array points;
      for (std::size_t t = 0; t < targets[i].size(); ++t) {
        const McRetimeResult& point = sweep_points[i][t];
        Json p = Json::object();
        p.set("target", targets[i][t]);
        if (point.success) {
          p.set("ff", point.stats.registers_after);
          p.set("achieved", point.stats.period_after);
        } else {
          p.set("error", point.error);
        }
        points.push_back(std::move(p));
      }
      sweep_json.set("points", Json(std::move(points)));
      entry.set("sweep", std::move(sweep_json));
    }
    entries.push_back(std::move(entry));
  }

  for (std::size_t w = 0; w < widths.size(); ++w) {
    Json entry = Json::object();
    entry.set("circuit", str_format("fig1_w%zu", widths[w]));
    entry.set("width", widths[w]);
    entry.set("mc", solve_json(fig1_mc[w]));
    entry.set("decomposed", solve_json(fig1_decomposed[w]));
    entries.push_back(std::move(entry));
  }
  for (std::size_t k = 0; k < class_counts.size(); ++k) {
    const McRetimeResult& s = class_solves[k];
    Json entry = Json::object();
    entry.set("circuit", str_format("classes_k%zu", class_counts[k]));
    entry.set("enables", class_counts[k]);
    if (s.success) {
      entry.set("classes", s.stats.num_classes);
      entry.set("moved_steps", s.stats.moved_layers);
      entry.set("possible_steps", s.stats.possible_steps);
      entry.set("period", s.stats.period_after);
      entry.set("rdelay", ratio(static_cast<double>(s.stats.period_after),
                                static_cast<double>(s.stats.period_before)));
      entry.set("ff", s.stats.registers_after);
    } else {
      entry.set("error", s.error);
    }
    entries.push_back(std::move(entry));
  }

  // Totals over the circuits each table could report, as the paper sums:
  // `section.key` over the entries whose `section` (and `also`, if given)
  // carries numbers rather than an error.
  const auto total = [&entries](const char* section, const std::string& key,
                                const char* also = nullptr) {
    double sum = 0;
    for (const Json& entry : entries) {
      const Json* row = entry.find(section);
      const Json* other = also != nullptr ? entry.find(also) : row;
      if (row == nullptr || other == nullptr || row->has("error") ||
          other->has("error")) {
        continue;
      }
      sum += row->at(key).as_number();
    }
    return sum;
  };
  const auto totals = [&total](const char* section,
                               std::initializer_list<const char*> keys) {
    Json object = Json::object();
    for (const char* key : keys) object.set(key, total(section, key));
    return object;
  };
  Json totals2 = totals("table2", {"ff", "lut", "delay"});
  Json totals3 = totals("table3", {"ff", "lut", "delay"});
  for (const std::string key : {"ff", "lut", "delay"}) {
    totals2.set(key + "_before", total("table1", key, "table2"));
    if (key == "ff") continue;
    const double t3 = total("table3", key);
    totals3.set("r" + key + "1", ratio(t3, total("table1", key, "table3")));
    totals3.set("r" + key + "2", ratio(t3, total("table2", key, "table3")));
  }
  totals3.set("ff_original", total("table1", "ff", "table3"));
  totals3.set("register_ratio", ratio(total("table3", "ff"),
                                      total("table1", "ff", "table3")));
  totals3.set("mc_ff", total("table2", "ff", "table3"));
  totals3.set("mc_register_ratio", ratio(total("table2", "ff", "table3"),
                                         total("table1", "ff", "table3")));
  Json totals4 = totals("fig4", {"with_estimate", "with_physical",
                                 "without_estimate", "without_physical"});
  totals4.set("undercount_pct",
              undercount_pct(total("fig4", "without_estimate"),
                             total("fig4", "without_physical")));
  Json totals5 = totals("table2", {"local_justifications",
                                   "global_justifications", "attempts"});
  totals5.set("local_only_attempts", total("fig5", "local_only_attempts"));
  Json breakdown = Json::object();
  for (const char* phase : {"retime", "implement", "graph"}) {
    breakdown.set(phase, profile_sum.percent(phase));
  }

  Json summary = Json::object();
  summary.set("circuits", n);
  summary.set("rdelay", ratio(total("table2", "delay"),
                              total("table1", "delay", "table2")));
  summary.set("rlut", ratio(total("table2", "lut"),
                            total("table1", "lut", "table2")));
  summary.set("register_ratio", ratio(total("table2", "ff"),
                                      total("table1", "ff", "table2")));
  summary.set("local_justification_pct",
              percent(total("table2", "local_justifications"),
                      total("table2", "global_justifications")));
  summary.set("table1", totals("table1", {"ff", "lut", "delay"}));
  summary.set("table2", std::move(totals2));
  summary.set("table3", std::move(totals3));
  summary.set("fig4", std::move(totals4));
  summary.set("fig5", std::move(totals5));
  summary.set("retime_remap_seconds", total("table2", "seconds"));
  summary.set("cpu_breakdown_pct", std::move(breakdown));

  Json opts = Json::object();
  opts.set("quick", options.quick);
  opts.set("seed", options.seed);
  opts.set("repetitions", 1);
  Json report = Json::object();
  report.set("schema", kBenchPaperSchema);
  report.set("options", std::move(opts));
  report.set("entries", Json(std::move(entries)));
  report.set("summary", std::move(summary));
  return report;
}

}  // namespace mcrt
