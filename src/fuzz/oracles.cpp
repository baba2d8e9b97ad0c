#include "fuzz/oracles.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "base/strings.h"
#include "blif/blif.h"
#include "cslow/cslow.h"
#include "cslow/stream_check.h"
#include "mcretime/lower.h"
#include "mcretime/mc_retime.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/flow_script.h"
#include "pipeline/job_executor.h"
#include "pipeline/passes.h"
#include "retime/minperiod.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/equivalence.h"
#include "tech/decompose.h"
#include "tech/flowmap.h"
#include "tech/sta.h"
#include "verify/ternary_bmc.h"

namespace mcrt {

std::string OracleVerdict::first_failure() const {
  for (const OracleLeg& leg : legs) {
    if (!leg.pass) return leg.name + ": " + leg.detail;
  }
  return {};
}

namespace {

namespace fs = std::filesystem;

void add_leg(OracleVerdict& v, std::string name, bool pass,
             std::string detail = {}) {
  if (!pass) v.pass = false;
  v.legs.push_back(OracleLeg{std::move(name), pass, std::move(detail)});
}

void add_skipped(OracleVerdict& v, std::string name, std::string why) {
  v.legs.push_back(
      OracleLeg{std::move(name), true, "skipped: " + std::move(why)});
}

/// The planted bug: behaves exactly like the standard sweep, then flips
/// the truth table of the first LUT with at least one input — a minimal,
/// silent miscompile. The netlist stays structurally valid, so only a
/// behavioural cross-check can see it.
class FlipLutSweepPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "sweep"; }
  [[nodiscard]] std::string_view description() const override {
    return "sweep (sabotaged: flips one LUT truth table)";
  }
  PassResult run(FlowContext& context) override {
    SweepPass inner;
    PassResult result = inner.run(context);
    if (!result.success) return result;
    Netlist& n = context.netlist();
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      const Node& node = std::as_const(n).node(id);
      if (node.kind != NodeKind::kLut || node.function.input_count() < 1) {
        continue;
      }
      n.node(id).function =
          TruthTable(node.function.input_count(), ~node.function.bits());
      break;
    }
    return result;
  }
};

/// Runs `script` serially over a copy of the case's circuit through the
/// same execute_flow_job() core the bulk engine and the daemon use.
BulkJobResult run_serial(const FuzzCase& c, const std::string& script,
                         const PassRegistry& registry,
                         const OracleOptions& options) {
  const BulkJob job = make_netlist_job("case", c.netlist);
  JobExecutionOptions exec;
  exec.keep_netlist = true;
  exec.timeout_seconds = options.timeout_seconds;
  exec.cancel = options.cancel;
  BulkJobResult out;
  execute_flow_job(
      job,
      [&registry, &script](PassManager& manager, std::string* error) {
        if (auto problem = compile_flow_script(script, registry, manager)) {
          *error = *problem;
          return false;
        }
        return true;
      },
      exec, out);
  return out;
}

std::string canonical_json(const BulkJobResult& result) {
  BulkJsonOptions json;
  json.canonical = true;
  return bulk_job_result_to_json(result, json);
}

/// Whether the script restructures fanin cones (decompose/map). Gate-level
/// 3-valued simulation is pessimistic on restructured logic, so on circuits
/// that can hold X indefinitely (EN/sync/async registers) the behavioural
/// leg would report spurious mismatches; those combinations skip it, the
/// byte-identity and period legs still apply.
bool script_restructures(const std::string& script) {
  return script.find("map(") != std::string::npos ||
         script.find("decompose-en") != std::string::npos ||
         script.find("decompose-sync") != std::string::npos;
}

bool keeps_x_alive(const Netlist& netlist) {
  const Netlist::Stats s = netlist.stats();
  return s.with_en + s.with_sync + s.with_async > 0;
}

/// Input-vs-result equivalence leg shared by every flow-running oracle.
void check_flow_behavior(const FuzzCase& c, const BulkJobResult& result,
                         OracleVerdict& v, const char* leg_prefix) {
  const std::string leg = std::string(leg_prefix) + "sim-equivalence";
  if (!result.success || !result.netlist.has_value()) return;
  if (c.script.find("cslow=") != std::string::npos) {
    // Defensive: a C-slowed result interleaves C streams and is *supposed*
    // to differ from the input; the stream-level oracle owns that check.
    add_skipped(v, leg, "cslow flow is not input-equivalent");
    return;
  }
  if (clock_domain_count(c.netlist) > 1) {
    add_skipped(v, leg, "multi-clock circuit (simulators are single-clock)");
    return;
  }
  if (script_restructures(c.script) && keeps_x_alive(c.netlist)) {
    add_skipped(v, leg, "restructuring flow on X-retentive registers");
    return;
  }
  EquivalenceOptions opt;
  opt.cycles = 48;
  opt.runs = 6;
  opt.warmup = 8;
  opt.seed = c.seed | 1;
  // Ternary simulation of a restructured+relocated circuit is allowed to
  // go X where the original is defined (same policy as --bmc-x-ok); only
  // a defined-vs-defined disagreement is a miscompile.
  opt.x_refinement_ok = true;
  const EquivalenceResult eq =
      check_sequential_equivalence(c.netlist, *result.netlist, opt);
  add_leg(v, leg, eq.equivalent, eq.counterexample);
}

/// Recomputed-period leg: the reported period_after must match static
/// timing analysis of the result the engine actually handed back.
void check_period_consistency(const BulkJobResult& result, OracleVerdict& v,
                              const char* leg_prefix) {
  if (!result.success || !result.netlist.has_value()) return;
  const std::int64_t sta = compute_period(*result.netlist);
  add_leg(v, std::string(leg_prefix) + "period-consistency",
          sta == result.period_after,
          sta == result.period_after
              ? std::string{}
              : str_format("reported %lld, STA says %lld",
                           static_cast<long long>(result.period_after),
                           static_cast<long long>(sta)));
}

// --- serial vs bulk ---------------------------------------------------------

OracleVerdict serial_vs_bulk(const FuzzCase& c, const PassRegistry& registry,
                             const OracleOptions& options) {
  OracleVerdict v;
  const BulkJobResult serial = run_serial(c, c.script, registry, options);

  BulkOptions bulk_options;
  bulk_options.jobs = 3;
  bulk_options.keep_netlists = true;
  bulk_options.registry = &registry;
  bulk_options.timeout_seconds = options.timeout_seconds;
  bulk_options.cancel = options.cancel;
  const BulkRunner runner(c.script, bulk_options);
  const BulkReport report = runner.run({make_netlist_job("case", c.netlist)});
  if (report.results.size() != 1) {
    add_leg(v, "bulk-ran", false, "bulk produced no result");
    return v;
  }
  const BulkJobResult& bulk = report.results.front();

  const std::string serial_json = canonical_json(serial);
  const std::string bulk_json = canonical_json(bulk);
  add_leg(v, "report-identity", serial_json == bulk_json,
          serial_json == bulk_json
              ? std::string{}
              : "canonical per-job JSON differs between serial and bulk");
  if (serial.success && bulk.success) {
    const std::string serial_blif = write_blif_string(*serial.netlist);
    const std::string bulk_blif = write_blif_string(*bulk.netlist);
    add_leg(v, "blif-identity", serial_blif == bulk_blif,
            serial_blif == bulk_blif
                ? std::string{}
                : "result BLIF differs between serial and bulk");
  } else {
    add_leg(v, "failure-agreement", serial.success == bulk.success,
            str_format("serial %s, bulk %s",
                       serial.success ? "succeeded" : "failed",
                       bulk.success ? "succeeded" : "failed"));
  }
  check_flow_behavior(c, serial, v, "");
  check_period_consistency(serial, v, "");
  return v;
}

// --- bulk vs serve ----------------------------------------------------------

std::string unique_scratch_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const fs::path base = fs::temp_directory_path();
  return (base / str_format("mcrt-fuzz-%d-%llu",
                            static_cast<int>(::getpid()),
                            static_cast<unsigned long long>(
                                counter.fetch_add(1)))).string();
}

OracleVerdict bulk_vs_serve(const FuzzCase& c, const PassRegistry& registry,
                            const OracleOptions& options) {
  OracleVerdict v;
  const std::string dir = unique_scratch_dir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    add_leg(v, "serve-setup", false, "cannot create scratch dir " + dir);
    return v;
  }
  const std::string input_path = dir + "/case.blif";
  if (!write_blif_file(c.netlist, input_path, "case")) {
    add_leg(v, "serve-setup", false, "cannot write " + input_path);
    fs::remove_all(dir, ec);
    return v;
  }

  // Bulk side: the same file job the daemon will run.
  BulkOptions bulk_options;
  bulk_options.jobs = 2;
  bulk_options.keep_netlists = true;
  bulk_options.registry = &registry;
  bulk_options.timeout_seconds = options.timeout_seconds;
  bulk_options.cancel = options.cancel;
  const BulkReport report = BulkRunner(c.script, bulk_options)
                                .run({make_file_job(input_path, "")});
  const BulkJobResult& bulk = report.results.front();
  const std::string bulk_json = canonical_json(bulk);
  const std::string bulk_blif =
      bulk.netlist.has_value() ? write_blif_string(*bulk.netlist)
                               : std::string{};

  // Serve side: an in-process daemon on a private Unix socket.
  ServerOptions server_options;
  server_options.endpoint.unix_path = dir + "/serve.sock";
  server_options.jobs = 2;
  server_options.registry = &registry;
  server_options.default_timeout_seconds = options.timeout_seconds;
  RetimingServer server(server_options);
  std::string error;
  if (!server.start(&error)) {
    add_leg(v, "serve-start", false, error);
    fs::remove_all(dir, ec);
    return v;
  }
  std::thread accept_thread([&server] { server.run(); });

  ServeClient client;
  if (!client.connect(server.bound_endpoint(), &error)) {
    add_leg(v, "serve-connect", false, error);
  } else {
    const auto submit = [&](const char* id) {
      JobRequest request;
      request.id = id;
      request.script = c.script;
      request.path = input_path;
      request.options.canonical = true;
      request.options.return_blif = true;
      request.options.timeout_seconds = options.timeout_seconds;
      return client.submit(request);
    };
    // Two rounds, each collected before the next submit: the replay must
    // only go out once the first job has finished and populated the cache,
    // otherwise the two requests race and the cache-hit leg is a coin flip.
    // Two rounds, each collected before the next submit: the replay must
    // only go out once the first job has finished and populated the cache,
    // otherwise the two requests race and the cache-hit leg is a coin flip.
    // collect() returns every submitted job in submission order, so the
    // second round holds both results.
    std::vector<ClientJobResult> round1;
    std::vector<ClientJobResult> round2;
    if (!submit("f1") || !client.collect(&round1, &error) ||
        round1.size() != 1 || !submit("f2") ||
        !client.collect(&round2, &error) || round2.size() != 2) {
      add_leg(v, "serve-roundtrip", false,
              error.empty() ? "incomplete results" : error);
    } else {
      const ClientJobResult& first = round2[0];
      const ClientJobResult& replay = round2[1];
      add_leg(v, "serve-report-identity", first.job_json == bulk_json,
              first.job_json == bulk_json
                  ? std::string{}
                  : "canonical per-job JSON differs between serve and bulk");
      if (bulk.success) {
        add_leg(v, "serve-blif-identity", first.blif == bulk_blif,
                first.blif == bulk_blif
                    ? std::string{}
                    : "result BLIF differs between serve and bulk");
        add_leg(v, "cache-hit", replay.cached,
                replay.cached ? std::string{}
                              : "resubmission was not served from cache");
        add_leg(v, "cache-replay-identity",
                replay.job_json == first.job_json &&
                    replay.blif == first.blif,
                "cached replay bytes differ from the first response");
        if (replay.job_json == first.job_json && replay.blif == first.blif) {
          v.legs.back().detail.clear();
        }
      } else {
        add_leg(v, "serve-failure-agreement", !first.success,
                first.success ? "serve succeeded where bulk failed"
                              : std::string{});
      }
    }
  }
  client.close();
  server.request_stop();
  accept_thread.join();
  fs::remove_all(dir, ec);

  check_flow_behavior(c, bulk, v, "");
  return v;
}

// --- monolithic vs windowed -------------------------------------------------

std::string windowed_script(const std::string& script) {
  // The grammar guarantees exactly one "retime(" statement; substitute the
  // windowed pass with a window size small enough that even the fuzzer's
  // circuits get partitioned.
  const std::size_t at = script.find("retime(");
  if (at == std::string::npos) return script;
  std::string out = script;
  out.replace(at, 7, "retime-windowed(window-size=24,window-jobs=2,");
  return out;
}

OracleVerdict mono_vs_windowed(const FuzzCase& c,
                               const PassRegistry& registry,
                               const OracleOptions& options) {
  OracleVerdict v;
  const std::string win_script = windowed_script(c.script);
  if (win_script == c.script) {
    // Vacuously true — nothing to window means nothing to disagree about.
    // Important for the shrinker: dropping the retime statement makes the
    // case pass, so minimization can never trade a real mismatch for this.
    add_skipped(v, "windowed-agreement", "script has no retime( statement");
    return v;
  }
  const BulkJobResult mono = run_serial(c, c.script, registry, options);
  const BulkJobResult win = run_serial(c, win_script, registry, options);

  add_leg(v, "success-agreement", mono.success == win.success,
          mono.success == win.success
              ? std::string{}
              : str_format("monolithic %s, windowed %s: %s",
                           mono.success ? "succeeded" : "failed",
                           win.success ? "succeeded" : "failed",
                           (mono.success ? win.error : mono.error).c_str()));
  if (mono.success && win.success) {
    // Windowed retiming explores a subset of the monolithic solution
    // space, so it can never beat the optimal minimum period.
    add_leg(v, "period-dominance", win.period_after >= mono.period_after,
            win.period_after >= mono.period_after
                ? std::string{}
                : str_format("windowed period %lld beats monolithic %lld",
                             static_cast<long long>(win.period_after),
                             static_cast<long long>(mono.period_after)));
    check_period_consistency(mono, v, "mono-");
    check_period_consistency(win, v, "windowed-");
    check_flow_behavior(c, mono, v, "mono-");
    FuzzCase wc;
    wc.netlist = c.netlist;
    wc.script = win_script;
    wc.seed = c.seed;
    check_flow_behavior(wc, win, v, "windowed-");

    if (options.enable_bmc && clock_domain_count(c.netlist) <= 1 &&
        c.netlist.stats().luts <= 40 && c.netlist.inputs().size() <= 12 &&
        !script_restructures(c.script)) {
      TernaryBmcOptions bmc;
      bmc.depth = 4;
      bmc.x_refinement_ok = true;
      bmc.cancel = options.cancel;
      const TernaryBmcResult r =
          check_ternary_bmc(c.netlist, *win.netlist, bmc);
      add_leg(v, "ternary-bmc",
              r.verdict != TernaryBmcResult::Verdict::kMismatch, r.detail);
    }
  }
  return v;
}

// --- compact vs legacy cores ------------------------------------------------

/// Mirrors the retime pass's d=10 preprocessing so the FEAS leg solves the
/// same graph the scripted flows do.
Netlist with_default_delays(const Netlist& input) {
  Netlist n = input;
  for (std::size_t i = 0; i < n.node_count(); ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    const Node& node = std::as_const(n).node(id);
    if (node.kind == NodeKind::kLut && node.function.input_count() >= 1 &&
        node.delay == 0) {
      n.set_node_delay(id, 10);
    }
  }
  return n;
}

OracleVerdict compact_vs_legacy(const FuzzCase& c,
                                const PassRegistry& registry,
                                const OracleOptions& options) {
  OracleVerdict v;

  // Leg 1: the scripted flow must preserve behaviour, and the word-parallel
  // and scalar equivalence engines must agree about it.
  const BulkJobResult serial = run_serial(c, c.script, registry, options);
  check_flow_behavior(c, serial, v, "");
  if (serial.success && serial.netlist.has_value() &&
      clock_domain_count(c.netlist) <= 1) {
    EquivalenceOptions word;
    word.cycles = 48;
    word.runs = 6;
    word.warmup = 8;
    word.seed = c.seed | 1;
    word.x_refinement_ok = true;  // same policy as the behaviour leg
    EquivalenceOptions scalar = word;
    scalar.engine = EquivalenceOptions::Engine::kScalar;
    const EquivalenceResult rw =
        check_sequential_equivalence(c.netlist, *serial.netlist, word);
    const EquivalenceResult rs =
        check_sequential_equivalence(c.netlist, *serial.netlist, scalar);
    const bool agree = rw.equivalent == rs.equivalent &&
                       rw.counterexample == rs.counterexample &&
                       rw.compared_defined_outputs ==
                           rs.compared_defined_outputs;
    add_leg(v, "sim-engine-agreement", agree,
            agree ? std::string{}
                  : str_format("word: eq=%d cmp=%zu, scalar: eq=%d cmp=%zu",
                               rw.equivalent ? 1 : 0,
                               rw.compared_defined_outputs,
                               rs.equivalent ? 1 : 0,
                               rs.compared_defined_outputs));
  }

  // Leg 2: the CSR and legacy FEAS cores must find the same minimum
  // period, and both labelings must be legal and meet it.
  try {
    const Netlist delayed = with_default_delays(c.netlist);
    const McPrepared prepared = prepare_mc_graph(delayed, McRetimeOptions{});
    const RetimeGraph graph =
        lower_to_retime_graph(prepared.graph, prepared.bounds);
    const RetimeSolution csr =
        minperiod_retime(graph, FeasImpl::kCsr, options.cancel);
    const RetimeSolution legacy =
        minperiod_retime(graph, FeasImpl::kLegacy, options.cancel);
    add_leg(v, "feas-agreement",
            csr.feasible == legacy.feasible && csr.period == legacy.period,
            str_format("csr: feasible=%d period=%lld, "
                       "legacy: feasible=%d period=%lld",
                       csr.feasible ? 1 : 0,
                       static_cast<long long>(csr.period),
                       legacy.feasible ? 1 : 0,
                       static_cast<long long>(legacy.period)));
    if (v.legs.back().pass) v.legs.back().detail.clear();
    if (csr.feasible && legacy.feasible) {
      const std::string csr_legal = graph.check_legal(csr.r);
      const std::string legacy_legal = graph.check_legal(legacy.r);
      add_leg(v, "feas-legality",
              csr_legal.empty() && legacy_legal.empty(),
              csr_legal.empty() ? legacy_legal : csr_legal);
      const std::int64_t csr_period = graph.period(csr.r);
      const std::int64_t legacy_period = graph.period(legacy.r);
      add_leg(v, "feas-period-met",
              csr_period <= csr.period && legacy_period <= legacy.period,
              str_format("csr labels give %lld (claimed %lld), "
                         "legacy labels give %lld (claimed %lld)",
                         static_cast<long long>(csr_period),
                         static_cast<long long>(csr.period),
                         static_cast<long long>(legacy_period),
                         static_cast<long long>(legacy.period)));
      if (v.legs.back().pass) v.legs.back().detail.clear();
    }
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    add_leg(v, "feas-agreement", false,
            std::string("engine threw: ") + e.what());
  }

  // Leg 3: FlowMap on the decomposed circuit, checked against the mapped
  // netlist itself: recomputed LUT depth equals the reported depth, every
  // LUT has at most k inputs and lut_count matches, and the mapping is
  // sim-equivalent to its subject graph.
  try {
    const Netlist binary = decompose_to_binary(c.netlist);
    FlowMapOptions map_opt;
    map_opt.cancel = options.cancel;
    const FlowMapResult mapped = flowmap_map(binary, map_opt);
    const std::uint32_t depth = lut_depth(mapped.mapped);
    std::size_t luts = 0;
    std::size_t too_wide = 0;
    for (const Node& node : mapped.mapped.nodes()) {
      if (node.kind != NodeKind::kLut || node.fanins.empty()) continue;
      ++luts;
      if (node.fanins.size() > map_opt.k) ++too_wide;
    }
    EquivalenceOptions eq;
    eq.cycles = 48;
    eq.runs = 6;
    eq.warmup = 8;
    eq.seed = c.seed | 1;
    eq.x_refinement_ok = true;  // same policy as the behaviour leg
    const EquivalenceResult verdict =
        check_sequential_equivalence(binary, mapped.mapped, eq);
    std::string detail;
    if (depth != mapped.depth) {
      detail = str_format("reported depth %u, mapped netlist has %u",
                          mapped.depth, depth);
    } else if (too_wide != 0 || luts != mapped.lut_count) {
      detail = str_format("%zu LUTs wider than k=%u; reported %zu LUTs, "
                          "mapped netlist has %zu",
                          too_wide, map_opt.k, mapped.lut_count, luts);
    } else if (!verdict.equivalent) {
      detail = verdict.counterexample;
    }
    add_leg(v, "flowmap-structure", detail.empty(), detail);
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    add_leg(v, "flowmap-structure", false,
            std::string("engine threw: ") + e.what());
  }
  return v;
}

// --- cslow vs replicated ----------------------------------------------------

/// Extracts C from the script's ",cslow=C" option and writes the script
/// with the cslow options stripped (the monolithic reference flow) into
/// *base. Returns 0 when the script has no cslow option.
std::uint32_t split_cslow_script(const std::string& script,
                                 std::string* base) {
  const std::size_t at = script.find(",cslow=");
  if (at == std::string::npos) return 0;
  std::size_t end = at + 7;
  std::uint32_t factor = 0;
  while (end < script.size() && script[end] >= '0' && script[end] <= '9') {
    factor = factor * 10 + static_cast<std::uint32_t>(script[end] - '0');
    ++end;
  }
  std::string stripped = script.substr(0, at) + script.substr(end);
  const std::size_t verify = stripped.find(",cslow-verify");
  if (verify != std::string::npos) stripped.erase(verify, 13);
  if (base != nullptr) *base = std::move(stripped);
  return factor;
}

OracleVerdict cslow_vs_replicated(const FuzzCase& c,
                                  const PassRegistry& registry,
                                  const OracleOptions& options) {
  OracleVerdict v;
  std::string base_script;
  const std::uint32_t factor = split_cslow_script(c.script, &base_script);
  if (factor < 2) {
    // Vacuously true — same shrinker guard as mono-vs-windowed: dropping
    // the cslow option makes the case pass, so minimization can never
    // trade a real stream mismatch for this.
    add_skipped(v, "stream-equivalence", "script has no cslow=C option");
    return v;
  }
  const BulkJobResult mono = run_serial(c, base_script, registry, options);
  const BulkJobResult cs = run_serial(c, c.script, registry, options);
  add_leg(v, "success-agreement", mono.success == cs.success,
          mono.success == cs.success
              ? std::string{}
              : str_format("monolithic %s, cslow %s: %s",
                           mono.success ? "succeeded" : "failed",
                           cs.success ? "succeeded" : "failed",
                           (mono.success ? cs.error : mono.error).c_str()));
  if (!mono.success || !cs.success || !cs.netlist.has_value()) return v;

  check_period_consistency(cs, v, "cslow-");
  // C-slowing adds register slack everywhere, so the per-stream minimum
  // period can never exceed the monolithic one on the same input.
  add_leg(v, "period-dominance", cs.period_after <= mono.period_after,
          cs.period_after <= mono.period_after
              ? std::string{}
              : str_format("cslow period %lld exceeds monolithic %lld",
                           static_cast<long long>(cs.period_after),
                           static_cast<long long>(mono.period_after)));

  // Stream leg: the C-slowed result fed C interleaved streams must match C
  // independent copies of the original circuit (every non-cslow pass in
  // the flow is behaviour-preserving).
  const std::string leg = "stream-equivalence";
  if (clock_domain_count(c.netlist) > 1) {
    add_skipped(v, leg, "multi-clock circuit (simulators are single-clock)");
  } else if (script_restructures(c.script) && keeps_x_alive(c.netlist)) {
    add_skipped(v, leg, "restructuring flow on X-retentive registers");
  } else {
    StreamCheckOptions sim;
    sim.cycles = 48;
    sim.runs = 8;
    sim.warmup = 8;
    sim.seed = c.seed | 1;
    const StreamCheckResult eq =
        check_stream_equivalence(c.netlist, *cs.netlist, factor, sim);
    if (eq.skipped) {
      add_skipped(v, leg, eq.reason);
    } else {
      add_leg(v, leg, eq.pass, eq.reason);
    }
    if (options.enable_bmc && !eq.skipped && c.netlist.stats().luts <= 40 &&
        c.netlist.inputs().size() <= 12 && !script_restructures(c.script)) {
      // Exhaustive cross-check against the directly replicated reference:
      // cslow_transform of the input vs the flow's retimed C-slow result.
      const CslowResult ref = cslow_transform(c.netlist, factor);
      if (ref.success) {
        TernaryBmcOptions bmc;
        bmc.depth = 4;
        bmc.x_refinement_ok = true;
        bmc.cancel = options.cancel;
        const TernaryBmcResult r =
            check_ternary_bmc(ref.netlist, *cs.netlist, bmc);
        add_leg(v, "cslow-ternary-bmc",
                r.verdict != TernaryBmcResult::Verdict::kMismatch, r.detail);
      }
    }
  }
  return v;
}

}  // namespace

bool install_break(PassRegistry& registry, const std::string& spec,
                   std::string* error) {
  if (spec == "flip-lut") {
    registry.register_pass(
        "sweep", [] { return std::make_unique<FlipLutSweepPass>(); });
    return true;
  }
  if (error) *error = "unknown break spec: " + spec;
  return false;
}

bool make_fuzz_registry(const FuzzCase& c, PassRegistry& registry,
                        std::string* error) {
  if (!c.break_spec.empty() &&
      !install_break(registry, c.break_spec, error)) {
    return false;
  }
  // Duplicate names are rejected, so an installed break shadows the
  // standard pass of the same name.
  register_standard_passes(registry);
  return true;
}

OracleVerdict run_oracle(const FuzzCase& c, const OracleOptions& options) {
  PassRegistry registry;
  std::string error;
  if (!make_fuzz_registry(c, registry, &error)) {
    OracleVerdict v;
    add_leg(v, "setup", false, error);
    return v;
  }
  switch (c.oracle) {
    case OracleKind::kSerialVsBulk:
      return serial_vs_bulk(c, registry, options);
    case OracleKind::kBulkVsServe:
      return bulk_vs_serve(c, registry, options);
    case OracleKind::kMonoVsWindowed:
      return mono_vs_windowed(c, registry, options);
    case OracleKind::kCompactVsLegacy:
      return compact_vs_legacy(c, registry, options);
    case OracleKind::kCslowVsReplicated:
      return cslow_vs_replicated(c, registry, options);
  }
  OracleVerdict v;
  add_leg(v, "setup", false, "unknown oracle");
  return v;
}

}  // namespace mcrt
