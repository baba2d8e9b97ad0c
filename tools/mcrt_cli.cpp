// mcrt - command-line front end for the multiple-class retiming library.
//
// Run `mcrt` with no arguments for the usage text. It is generated from the
// two tables below, kCommands (one row per subcommand) and kFlags (one row
// per flag: type, destination, range, the commands that read it, help), so
// parsing, validation and the documentation cannot drift apart. The
// transforming subcommands (sweep, strash, regsweep, decompose-en,
// decompose-sync, map, retime) are one-pass flow scripts over the same
// PassManager that `mcrt flow` runs (docs/PIPELINE.md).
//
// All files are BLIF with the `.mclatch` extension for complex registers
// (see blif/blif.h).
#include <algorithm>
#include <charconv>
#include <climits>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "base/cancel.h"
#include "base/fault_injector.h"
#include "base/json.h"
#include "base/socket.h"
#include "base/strings.h"
#include "base/version.h"
#include "blif/blif.h"
#include "netlist/dot_export.h"
#include "mcretime/register_class.h"
#include "pipeline/bulk_runner.h"
#include "pipeline/diagnostics.h"
#include "pipeline/flow_context.h"
#include "pipeline/flow_script.h"
#include "pipeline/pass_manager.h"
#include "perf/bench.h"
#include "perf/serve_bench.h"
#include "pipeline/passes.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/equivalence.h"
#include "tech/sta.h"
#include "tech/timing_report.h"
#include "fuzz/driver.h"
#include "verify/formal_equivalence.h"
#include "verify/ternary_bmc.h"
#include "workload/generator.h"

namespace {

using namespace mcrt;

/// Batch-wide stop driven by SIGINT. request_cancel() only stores relaxed
/// atomics, so it is safe to call from the signal handler; every engine
/// polls the chained per-job tokens and unwinds at the next poll.
CancelToken g_interrupt;

extern "C" void handle_sigint(int) { g_interrupt.request_cancel(); }

/// Parses all of `text` as a T: no trailing characters, no sign on an
/// unsigned type, no out-of-range or non-finite value.
template <typename T>
bool parse_number(const std::string& text, T* out) {
  const char* last = text.data() + text.size();
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// Every value a flag can set: each field is the destination of exactly one
/// kFlags row, and its initializer is what a command sees when the flag is
/// absent. `positionals` and `given` are filled by the parser.
struct Args {
  std::vector<std::string> positionals;
  /// The flags on the command line, each with its value text ("" for a
  /// switch).
  std::map<std::string_view, std::string> given;

  [[nodiscard]] bool has(std::string_view flag) const {
    return given.count(flag) != 0;
  }

  // Flow execution.
  bool profile = false;
  bool verify = false;
  bool no_validate = false;
  double timeout = 0;  ///< seconds; 0 = no deadline
  std::uint64_t budget_bdd = 0;
  std::uint64_t budget_bmc = 0;
  std::uint64_t budget_rss_mb = 0;
  std::string faults;  ///< merged over the MCRT_FAULT_* environment
  // Pass arguments of the one-pass aliases (`timing` reads lut_delay).
  std::uint64_t lut_k = 4;
  std::int64_t lut_delay = 10;
  std::int64_t target = 0;
  bool minperiod = false;
  bool no_sharing = false;
  std::uint64_t cslow = 0;
  std::uint64_t windows = 0;
  std::uint64_t window_size = 0;
  std::uint64_t window_jobs = 0;
  // check.
  bool formal = false;
  std::uint64_t bmc_depth = 0;
  bool bmc_x_ok = false;
  // Batches: bulk, client, fuzz (and serve's --jobs, bench's --out-dir).
  std::uint64_t jobs = 0;  ///< 0 = hardware concurrency
  std::string out_dir;
  std::string report;
  bool canonical = false;
  std::string manifest;
  bool resume = false;
  std::uint64_t retries = 0;
  // corpus, bench, loadtest.
  std::uint64_t count = 10;
  std::uint64_t gates = 0;
  std::uint64_t seed = 1;
  bool quick = false;
  std::string baseline;
  double max_regress = 0.20;
  // fuzz.
  double budget_s = 0;
  std::uint64_t cases = 0;
  std::string oracle;
  std::string repro;
  bool update = false;
  std::string plant_bug;
  // serve and client.
  std::string socket;
  std::uint64_t port = 0;
  std::uint64_t cache_mb = 64;
  std::string disk_cache_dir;
  std::uint64_t disk_cache_mb = 256;
  std::uint64_t disk_cache_ttl_s = 0;
  std::uint64_t max_inflight = 0;
  std::int64_t retry_after_ms = 200;
  std::int64_t retry_base_ms = 50;
  std::string tenant;
  bool hello = false;
  bool stats = false;
  bool health = false;
  bool drain = false;
  bool shutdown = false;
};

ResourceBudgets budgets(const Args& args) {
  return {args.budget_bdd, args.budget_bmc, args.budget_rss_mb << 20};
}

/// Pass-manager settings shared by flow, bulk and serve. `--verify` runs
/// the same equivalence spot check everywhere, so a served request with
/// verify=true checks exactly like `mcrt bulk --verify`.
PassManagerOptions manager_options(const Args& args) {
  PassManagerOptions options;
  options.check_invariants = !args.no_validate;
  options.check_equivalence = args.verify;
  options.equivalence.runs = 2;
  options.equivalence.cycles = 48;
  return options;
}

/// Loads + validates a netlist, reporting every problem to `diag`.
std::optional<Netlist> load(const std::string& path, DiagnosticsSink& diag) {
  auto parsed = read_blif_file(path);
  if (const auto* err = std::get_if<BlifError>(&parsed)) {
    diag.error(path, str_format("line %zu: %s", err->line,
                                err->message.c_str()));
    return std::nullopt;
  }
  Netlist netlist = std::move(std::get<Netlist>(parsed));
  const auto problems = netlist.validate();
  if (!problems.empty()) {
    for (const std::string& problem : problems) diag.error(path, problem);
    return std::nullopt;
  }
  return netlist;
}

bool store(const Netlist& netlist, const std::string& path,
           DiagnosticsSink& diag) {
  if (!write_blif_file(netlist, path)) {
    diag.error(path, "cannot write file");
    return false;
  }
  return true;
}

void print_stats(const Netlist& n, const char* label) {
  const auto stats = n.stats();
  std::printf("%-10s in=%zu out=%zu lut=%zu const=%zu ff=%zu "
              "(en=%zu sync=%zu async=%zu) period=%lld\n",
              label, stats.inputs, stats.outputs, stats.luts, stats.constants,
              stats.registers, stats.with_en, stats.with_sync,
              stats.with_async,
              static_cast<long long>(compute_period(n)));
}

int cmd_stats(const Args& args, StreamDiagnostics& diag) {
  const auto n = load(args.positionals[0], diag);
  if (!n) return 1;
  print_stats(*n, "circuit");
  return 0;
}

int cmd_classes(const Args& args, StreamDiagnostics& diag) {
  const auto input = load(args.positionals[0], diag);
  if (!input) return 1;
  const Netlist& n = *input;
  const auto classes = classify_registers(n);
  std::printf("%zu registers in %zu classes\n", n.register_count(),
              classes.class_count());
  std::vector<std::size_t> population(classes.class_count(), 0);
  for (const ClassId c : classes.reg_class) ++population[c.index()];
  for (std::size_t c = 0; c < classes.class_count(); ++c) {
    const RegisterClassInfo& info = classes.classes[c];
    std::printf("  class %zu: %zu regs, clk=%s", c, population[c],
                n.net(info.clk).name.c_str());
    if (info.en.valid()) std::printf(" en=%s", n.net(info.en).name.c_str());
    if (info.sync_ctrl.valid()) {
      std::printf(" sync=%s", n.net(info.sync_ctrl).name.c_str());
    }
    if (info.async_ctrl.valid()) {
      std::printf(" async=%s", n.net(info.async_ctrl).name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_timing(const Args& args, StreamDiagnostics& diag) {
  auto timed = load(args.positionals[0], diag);
  if (!timed) return 1;
  assign_default_lut_delays(*timed, args.lut_delay);
  const auto paths = worst_paths(*timed, 5);
  std::fputs(format_timing_report(*timed, paths).c_str(), stdout);
  return 0;
}

int cmd_dot(const Args& args, StreamDiagnostics& diag) {
  const auto input = load(args.positionals[0], diag);
  if (!input) return 1;
  if (!write_dot_file(*input, args.positionals[1])) {
    diag.error(args.positionals[1], "cannot write file");
    return 1;
  }
  return 0;
}

int cmd_check(const Args& args, StreamDiagnostics& diag) {
  const auto input = load(args.positionals[0], diag);
  if (!input) return 1;
  const auto other = load(args.positionals[1], diag);
  if (!other) return 1;
  const auto sim = check_sequential_equivalence(*input, *other, {});
  std::printf("simulation: %s (%zu defined outputs)%s%s\n",
              sim.equivalent ? "EQUIVALENT" : "DIFFERENT",
              sim.compared_defined_outputs,
              sim.equivalent ? "" : " - ",
              sim.counterexample.c_str());
  if (args.bmc_depth > 0) {
    TernaryBmcOptions bo;
    bo.depth = args.bmc_depth;
    bo.x_refinement_ok = args.bmc_x_ok;
    bo.cancel = &g_interrupt;
    const auto bmc = check_ternary_bmc(*input, *other, bo);
    const char* verdict =
        bmc.verdict == TernaryBmcResult::Verdict::kEquivalentUpToDepth
            ? "EQUIVALENT (bounded)"
        : bmc.verdict == TernaryBmcResult::Verdict::kMismatch ? "DIFFERENT"
        : bmc.verdict == TernaryBmcResult::Verdict::kResourceLimit
            ? "RESOURCE-LIMIT"
            : "UNSUPPORTED";
    std::printf("bmc[%zu]:    %s (%s)\n",
                static_cast<std::size_t>(args.bmc_depth), verdict,
                bmc.detail.c_str());
    if (bmc.verdict == TernaryBmcResult::Verdict::kMismatch) return 1;
  }
  if (args.formal) {
    const auto fv = check_formal_equivalence(*input, *other, {});
    const char* verdict =
        fv.verdict == FormalResult::Verdict::kEquivalent  ? "EQUIVALENT"
        : fv.verdict == FormalResult::Verdict::kMismatch ? "DIFFERENT"
                                                         : "UNSUPPORTED";
    std::printf("formal:     %s (%s)\n", verdict, fv.detail.c_str());
    return fv.verdict == FormalResult::Verdict::kEquivalent && sim.equivalent
               ? 0
               : 1;
  }
  return sim.equivalent ? 0 : 1;
}

/// Builds the --faults injector (on top of the MCRT_FAULT_* environment
/// configuration). Returns false on a malformed spec.
bool make_fault_injector(const Args& args, FaultInjector& injector,
                         DiagnosticsSink& diag) {
  if (args.faults.empty()) return true;
  std::string error;
  if (!injector.configure(args.faults, &error)) {
    diag.error("--faults", error);
    return false;
  }
  return true;
}

/// Shared driver for `flow` and the one-pass aliases: compile the script,
/// run it, report, write the result.
int run_flow(const std::string& script, const std::string& in_path,
             const std::string& out_path, const Args& args,
             StreamDiagnostics& diag) {
  auto input = load(in_path, diag);
  if (!input) return 1;

  PassManagerOptions options = manager_options(args);
  options.verbose = true;
  PassManager manager(options);
  if (const auto error =
          compile_flow_script(script, PassRegistry::standard(), manager)) {
    diag.error("flow", *error);
    return 2;
  }

  FlowContext context(std::move(*input), &diag);
  CancelToken deadline(&g_interrupt);
  if (args.timeout > 0) deadline.set_timeout(args.timeout);
  context.cancel = &deadline;
  context.budgets = budgets(args);
  FaultInjector faults;
  if (!make_fault_injector(args, faults, diag)) return 2;
  if (!args.faults.empty()) context.faults = &faults;

  const FlowResult result = manager.run(context);
  if (args.profile) std::fputs(result.format_profile().c_str(), stderr);
  if (!result.success) {
    diag.error("flow", str_format("%s: %s", flow_status_name(result.status),
                                  result.error.c_str()));
    return 1;
  }
  print_stats(context.netlist(), "result");
  return store(context.netlist(), out_path, diag) ? 0 : 1;
}

int cmd_flow(const Args& args, StreamDiagnostics& diag) {
  return run_flow(args.positionals[0], args.positionals[1],
                  args.positionals[2], args, diag);
}

/// Expands each input (a .blif file or a directory scanned for *.blif,
/// sorted) into bulk jobs writing to `out_dir` (if given). Deterministic
/// job order: inputs as given, directory entries sorted by name.
std::vector<BulkJob> collect_bulk_jobs(const std::vector<std::string>& inputs,
                                       const std::string& out_dir,
                                       DiagnosticsSink& diag, bool* ok) {
  namespace fs = std::filesystem;
  *ok = true;
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::directory_iterator(input, ec)) {
        if (entry.path().extension() == ".blif") {
          found.push_back(entry.path().string());
        }
      }
      if (ec) {
        diag.error(input, "cannot list directory: " + ec.message());
        *ok = false;
        return {};
      }
      std::sort(found.begin(), found.end());
      if (found.empty()) diag.warning(input, "no .blif files in directory");
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(input);
    }
  }
  std::vector<BulkJob> jobs;
  jobs.reserve(files.size());
  for (const std::string& file : files) {
    std::string output;
    if (!out_dir.empty()) {
      output = (fs::path(out_dir) / fs::path(file).filename()).string();
    }
    jobs.push_back(make_file_job(file, std::move(output)));
  }
  // Two inputs mapping onto one output file would race; refuse up front.
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      if (!jobs[i].output_path.empty() &&
          jobs[i].output_path == jobs[j].output_path) {
        diag.error(jobs[j].input_path,
                   "output collides with " + jobs[i].input_path + " at " +
                       jobs[i].output_path);
        *ok = false;
        return {};
      }
    }
  }
  return jobs;
}

int cmd_bulk(const Args& args, StreamDiagnostics& diag) {
  const std::string& script = args.positionals[0];
  const std::vector<std::string> inputs(args.positionals.begin() + 1,
                                        args.positionals.end());
  bool ok = false;
  std::vector<BulkJob> jobs =
      collect_bulk_jobs(inputs, args.out_dir, diag, &ok);
  if (!ok) return 2;
  if (jobs.empty()) {
    diag.error("bulk", "no input circuits");
    return 2;
  }

  FaultInjector faults;
  if (!make_fault_injector(args, faults, diag)) return 2;

  BulkOptions options;
  options.jobs = args.jobs;
  options.manager = manager_options(args);
  options.timeout_seconds = args.timeout;
  options.cancel = &g_interrupt;
  options.manifest_path = args.manifest;
  options.resume = args.resume;
  options.max_retries = args.retries;
  options.budgets = budgets(args);
  if (!args.faults.empty()) options.faults = &faults;
  BulkRunner runner(script, options);
  if (const auto error = runner.check()) {
    diag.error("bulk", *error);
    return 2;
  }
  const BulkReport report = runner.run(jobs);

  for (const BulkJobResult& r : report.results) {
    if (r.success) {
      std::printf("%-20s %-9s lut %zu -> %zu  ff %zu -> %zu  period "
                  "%lld -> %lld  (%.3fs)\n",
                  r.name.c_str(), r.resumed ? "ok*" : "ok", r.before.luts,
                  r.after.luts, r.before.registers, r.after.registers,
                  static_cast<long long>(r.period_before),
                  static_cast<long long>(r.period_after), r.seconds);
    } else {
      std::printf("%-20s %-9s %s\n", r.name.c_str(),
                  job_status_name(r.status), r.error.c_str());
      for (const Diagnostic& d : r.diagnostics) {
        if (d.severity != DiagSeverity::kNote) diag.report(d);
      }
    }
  }
  std::printf("bulk: %zu/%zu ok on %zu workers, wall %.3fs cpu %.3fs "
              "(speedup %.2fx)\n",
              report.succeeded(), report.results.size(), report.jobs,
              report.wall_seconds, report.cpu_seconds, report.speedup());

  if (!args.report.empty()) {
    BulkJsonOptions json;
    json.canonical = args.canonical;
    std::ofstream out(args.report, std::ios::binary);
    out << report.to_json(json);
    if (!out) {
      diag.error(args.report, "cannot write report");
      return 1;
    }
  }
  return report.failed() == 0 ? 0 : 1;
}

int cmd_corpus(const Args& args, StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  const std::string& out_dir = args.positionals[0];
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  std::vector<CircuitProfile> suite = random_suite(args.count, args.seed);
  if (args.gates > 0) suite.push_back(scaled_profile(args.gates, args.seed));
  // Big suites (many circuits, or a scaled design that takes seconds to
  // generate and write) report progress through the diagnostics sink so a
  // long-running corpus build is visibly alive, not hung.
  const bool report_progress = suite.size() >= 16 || args.gates >= 100000;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const CircuitProfile& profile = suite[i];
    if (report_progress) {
      diag.note("corpus", str_format("[%zu/%zu] generating %s", i + 1,
                                     suite.size(), profile.name.c_str()));
    }
    const Netlist netlist = generate_circuit(profile);
    const std::string path =
        (fs::path(out_dir) / (profile.name + ".blif")).string();
    if (!write_blif_file(netlist, path, profile.name)) {
      diag.error(path, "cannot write file");
      return 1;
    }
    const auto stats = netlist.stats();
    std::printf("%s: in=%zu lut=%zu ff=%zu\n", path.c_str(), stats.inputs,
                stats.luts, stats.registers);
  }
  return 0;
}

/// Gates `current` against `<baseline_dir>/<file_name>`: reads, parses and
/// validates the baseline with `validate`, then reports every regression
/// beyond `slack` to `diag` under `label`. Returns 0 when there is none.
int gate_against_baseline(
    const Json& current, const std::string& baseline_dir,
    const char* file_name,
    const std::function<std::string(const Json&)>& validate, double slack,
    const char* label, StreamDiagnostics& diag) {
  const std::string path =
      (std::filesystem::path(baseline_dir) / file_name).string();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    diag.error(label, "cannot read baseline " + path);
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = Json::parse(text);
  if (const auto* err = std::get_if<JsonParseError>(&parsed)) {
    diag.error(label, path + ": " + err->message);
    return 1;
  }
  const Json& baseline = std::get<Json>(parsed);
  const std::string problem = validate(baseline);
  if (!problem.empty()) {
    diag.error(label, path + ": " + problem);
    return 1;
  }
  const std::vector<std::string> regressions =
      bench_regressions(current, baseline, slack);
  for (const std::string& regression : regressions) {
    diag.error(label, std::string(file_name) + ": " + regression);
  }
  return regressions.empty() ? 0 : 1;
}

/// One console line per bench entry: its speedup columns or, in the paper
/// report, the numbers of a circuit's Table 2 row or of a figure entry.
std::string bench_entry_line(const Json& entry) {
  std::string line =
      str_format("  %-8s", entry.at("circuit").as_string().c_str());
  std::string numbers;
  bool has_speedup = false;
  const Json* row = entry.find("table2");
  for (const auto& [key, value] : (row ? *row : entry).as_object()) {
    if (key.rfind("speedup", 0) == 0) {
      line += str_format(" %s=%.2fx", key.c_str(), value.as_number());
      has_speedup = true;
    } else if (value.is_number()) {
      numbers += str_format(" %s=%g", key.c_str(), value.as_number());
    }
    for (const auto& [sub, sub_value] : value.as_object()) {
      if (sub_value.is_number()) {
        numbers += str_format(" %s.%s=%g", key.c_str(), sub.c_str(),
                              sub_value.as_number());
      }
    }
  }
  return has_speedup ? line : line + numbers;
}

/// bench and loadtest write their documents to the working directory by
/// default.
std::string bench_out_dir(const Args& args) {
  return args.out_dir.empty() ? "." : args.out_dir;
}

int cmd_bench(const Args& args, StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  const BenchOptions options{args.quick, args.seed};
  const std::string out_dir = bench_out_dir(args);

  struct Document {
    const char* label;
    const char* schema;
    const char* file_name;
    Json (*runner)(const BenchOptions&);
  };
  const Document documents[] = {
      {"retime", kBenchRetimeSchema, "BENCH_retime.json", run_retime_bench},
      {"sim", kBenchSimSchema, "BENCH_sim.json", run_sim_bench},
      {"window", kBenchWindowSchema, "BENCH_window.json", run_window_bench},
      {"cslow", kBenchCslowSchema, "BENCH_cslow.json", run_cslow_bench},
      {"paper", kBenchPaperSchema, "BENCH_paper.json", run_paper_bench},
  };

  std::vector<Json> reports;
  for (const Document& doc : documents) {
    std::printf("bench: running %s suite (%s)...\n", doc.label,
                args.quick ? "quick" : "full");
    Json report = doc.runner(options);
    const std::string problem = validate_bench_report(report, doc.schema);
    if (!problem.empty()) {
      diag.error("bench", std::string(doc.label) + ": " + problem);
      return 1;
    }
    for (const Json& entry : report.at("entries").as_array()) {
      std::printf("%s\n", bench_entry_line(entry).c_str());
    }
    const Json& summary = report.at("summary");
    if (summary.has("geomean_speedup")) {
      std::printf("  geomean %.2fx over %lld circuits\n",
                  summary.at("geomean_speedup").as_number(),
                  static_cast<long long>(summary.at("circuits").as_int()));
    } else {
      std::printf("  Rdelay %.2f, Rlut %.2f, register ratio %.2f, %.2f%% "
                  "local justifications over %lld circuits\n",
                  summary.at("rdelay").as_number(),
                  summary.at("rlut").as_number(),
                  summary.at("register_ratio").as_number(),
                  summary.at("local_justification_pct").as_number(),
                  static_cast<long long>(summary.at("circuits").as_int()));
    }
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    const std::string path = (fs::path(out_dir) / doc.file_name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << write_bench_report(report);
    if (!out.good()) {
      diag.error("bench", "cannot write " + path);
      return 1;
    }
    std::printf("  wrote %s\n", path.c_str());
    reports.push_back(std::move(report));
  }

  if (args.baseline.empty()) return 0;
  int rc = 0;
  for (std::size_t d = 0; d < reports.size(); ++d) {
    const Document& doc = documents[d];
    rc |= gate_against_baseline(
        reports[d], args.baseline, doc.file_name,
        [&doc](const Json& baseline) {
          return validate_bench_report(baseline, doc.schema);
        },
        bench_gate_slack(doc.schema, args.max_regress), "bench", diag);
  }
  if (rc == 0) std::printf("bench: no regression vs baseline\n");
  return rc;
}

int cmd_loadtest(const Args& args, StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  const std::string out_dir = bench_out_dir(args);
  ServeBenchOptions options;
  options.quick = args.quick;
  options.seed = args.seed;
  options.work_dir = (fs::path(out_dir) / "loadtest_work").string();

  std::printf("loadtest: running serve chaos phases (%s)...\n",
              args.quick ? "quick" : "full");
  const Json report = run_serve_bench(options, &diag);
  const std::string problem = validate_serve_bench_report(report);
  if (!problem.empty()) {
    if (report.has("error")) {
      diag.error("loadtest", report.at("error").as_string());
    }
    diag.error("loadtest", problem);
    return 1;
  }
  for (const Json& entry : report.at("entries").as_array()) {
    std::printf(
        "  %-10s requests=%lld speedup=%.2fx p99=%.1fms mem_hit=%.2f "
        "disk_hit=%.2f identical=%s\n",
        entry.at("circuit").as_string().c_str(),
        static_cast<long long>(entry.at("requests").as_int()),
        entry.at("speedup_warm_vs_cold").as_number(),
        entry.at("p99_ms").as_number(), entry.at("mem_hit_ratio").as_number(),
        entry.at("disk_hit_ratio").as_number(),
        entry.at("identical").as_bool() ? "yes" : "NO");
  }
  const Json& summary = report.at("summary");
  std::printf(
      "  geomean %.2fx, corrupt_served=%lld, restart_disk_hit_ratio=%.2f\n",
      summary.at("geomean_speedup").as_number(),
      static_cast<long long>(summary.at("corrupt_served").as_int()),
      summary.at("restart_disk_hit_ratio").as_number());

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  const std::string path = (fs::path(out_dir) / "BENCH_serve.json").string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << write_bench_report(report);
  if (!out.good()) {
    diag.error("loadtest", "cannot write " + path);
    return 1;
  }
  std::printf("  wrote %s\n", path.c_str());

  if (args.baseline.empty()) return 0;
  const int rc = gate_against_baseline(report, args.baseline,
                                       "BENCH_serve.json",
                                       validate_serve_bench_report,
                                       args.max_regress, "loadtest", diag);
  if (rc == 0) std::printf("loadtest: no regression vs baseline\n");
  return rc;
}

bool serve_endpoint(const Args& args, SocketEndpoint* endpoint,
                    DiagnosticsSink& diag) {
  if (args.socket.empty() && !args.has("--port")) {
    diag.error("serve", "need --socket <path> or --port <n>");
    return false;
  }
  endpoint->unix_path = args.socket;
  endpoint->tcp_port = static_cast<std::uint16_t>(args.port);  // kPort range
  return true;
}

int cmd_serve(const Args& args, StreamDiagnostics& diag) {
  ServerOptions options;
  if (!serve_endpoint(args, &options.endpoint, diag)) return 2;
  FaultInjector faults;
  if (!make_fault_injector(args, faults, diag)) return 2;
  options.jobs = args.jobs;
  options.cache_bytes = args.cache_mb << 20;  // kMegabytes range: no overflow
  options.disk_cache_dir = args.disk_cache_dir;
  options.disk_cache_bytes = args.disk_cache_mb << 20;
  options.disk_cache_ttl_seconds = args.disk_cache_ttl_s;
  options.max_inflight = args.max_inflight;
  options.retry_after_ms = static_cast<int>(args.retry_after_ms);
  // Requests own validate/verify; the manager options carry the effort.
  options.manager = manager_options(args);
  options.default_timeout_seconds = args.timeout;
  options.budgets = budgets(args);
  if (!args.faults.empty()) options.faults = &faults;
  options.log = &diag;

  RetimingServer server(options);
  std::string error;
  if (!server.start(&error)) {
    diag.error("serve", error);
    return 1;
  }
  // The smoke tests (and shell users) wait for this line before dialing.
  std::printf("mcrt serve: listening on %s\n",
              server.bound_endpoint().describe().c_str());
  std::fflush(stdout);
  server.run(&g_interrupt);
  const ServerStats stats = server.stats();
  const CacheStats cache = server.cache_stats();
  std::printf("mcrt serve: %llu requests (%llu ok, %llu failed, %llu timeout, "
              "%llu cancelled, %llu busy, %llu coalesced), cache %llu/%llu "
              "hits\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.timeout),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.busy),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.hits + cache.misses));
  if (const std::optional<DiskCacheStats> disk = server.disk_cache_stats()) {
    std::printf("mcrt serve: disk cache %llu/%llu hits, %zu entries, "
                "%llu quarantined, %llu write failures\n",
                static_cast<unsigned long long>(disk->hits),
                static_cast<unsigned long long>(disk->hits + disk->misses),
                disk->entries,
                static_cast<unsigned long long>(disk->quarantined),
                static_cast<unsigned long long>(disk->write_failures));
  }
  return 0;
}

int cmd_client(const Args& args, StreamDiagnostics& diag) {
  namespace fs = std::filesystem;
  // Positionals are the flow script then circuits; a control-only call
  // (--hello / --stats / --health / --drain / --shutdown) takes none.
  const std::vector<std::string>& files = args.positionals;
  if (files.size() == 1 ||
      (files.empty() && !args.hello && !args.stats && !args.health &&
       !args.drain && !args.shutdown)) {
    diag.error("client", "need \"<script>\" and circuits, or a control flag "
                         "(--hello, --stats, --health, --drain, --shutdown)");
    return 2;
  }
  const std::string script = files.empty() ? std::string() : files[0];
  const std::vector<std::string> inputs(
      files.empty() ? files.end() : files.begin() + 1, files.end());
  SocketEndpoint endpoint;
  if (!serve_endpoint(args, &endpoint, diag)) return 2;
  if (!args.report.empty() && !args.canonical) {
    diag.error("client", "--report needs --canonical (the client composes "
                         "the report from the daemon's canonical records)");
    return 2;
  }

  ServeClient client;
  std::string error;
  if (!client.connect(endpoint, &error)) {
    diag.error("client", error);
    return 1;
  }
  if (args.hello) std::printf("%s\n", client.greeting().write().c_str());

  int exit_code = 0;
  std::vector<std::string> job_jsons;
  std::size_t succeeded = 0;
  if (!inputs.empty()) {
    bool ok = false;
    std::vector<BulkJob> jobs =
        collect_bulk_jobs(inputs, args.out_dir, diag, &ok);
    if (!ok) return 2;
    if (jobs.empty()) {
      diag.error("client", "no input circuits");
      return 2;
    }
    std::vector<JobRequest> requests;
    requests.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      JobRequest request;
      request.id = str_format("j%zu", i);
      request.name = jobs[i].name;
      request.tenant = args.tenant;
      // The daemon may run in a different working directory.
      request.path = fs::absolute(jobs[i].input_path).string();
      if (!jobs[i].output_path.empty()) {
        request.output = fs::absolute(jobs[i].output_path).string();
      }
      request.script = script;
      request.options.canonical = args.canonical;
      request.options.timeout_seconds = args.timeout;
      request.options.validate = !args.no_validate;
      request.options.verify = args.verify;
      request.options.budgets = budgets(args);
      if (!client.submit(request)) {
        diag.error("client", "connection lost while submitting");
        return 1;
      }
      requests.push_back(std::move(request));
    }
    std::vector<ClientJobResult> results;
    if (!client.collect(&results, &error)) {
      diag.error("client", error);
      return 1;
    }
    // Re-submit transient outcomes — busy frames and the kIoError class
    // `mcrt bulk` retries — with exponential backoff honoring the daemon's
    // retry-after hint.
    RetryPolicy policy;
    policy.max_attempts = 1 + static_cast<int>(args.retries);
    policy.base_delay_ms = static_cast<int>(args.retry_base_ms);
    for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
      int hint_ms = 0;
      std::vector<std::size_t> redo;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].retryable()) {
          hint_ms = std::max(hint_ms, results[i].retry_after_ms);
          redo.push_back(i);
        }
      }
      if (redo.empty()) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(policy.delay_ms(attempt, hint_ms)));
      for (const std::size_t i : redo) {
        if (!client.submit(requests[i])) {
          diag.error("client", "connection lost while retrying");
          return 1;
        }
      }
      if (!client.collect(&results, &error)) {
        diag.error("client", error);
        return 1;
      }
    }
    for (const ClientJobResult& result : results) {
      if (result.success) {
        // Pull the stats line out of the per-job report object.
        auto parsed = Json::parse(result.job_json);
        const Json* job = std::get_if<Json>(&parsed);
        const Json& before = job != nullptr ? job->at("before") : Json();
        const Json& after = job != nullptr ? job->at("after") : Json();
        std::printf("%-20s %-9s lut %lld -> %lld  ff %lld -> %lld  period "
                    "%lld -> %lld%s\n",
                    result.name.c_str(), "ok",
                    static_cast<long long>(before.at("luts").as_int()),
                    static_cast<long long>(after.at("luts").as_int()),
                    static_cast<long long>(before.at("registers").as_int()),
                    static_cast<long long>(after.at("registers").as_int()),
                    static_cast<long long>(before.at("period").as_int()),
                    static_cast<long long>(after.at("period").as_int()),
                    result.cached ? "  (cached)" : "");
        ++succeeded;
      } else {
        std::printf("%-20s %-9s %s\n", result.name.c_str(),
                    result.status.c_str(), result.error.c_str());
        for (const Diagnostic& d : result.diagnostics) {
          if (d.severity != DiagSeverity::kNote) diag.report(d);
        }
        exit_code = 1;
      }
      job_jsons.push_back(result.job_json);
    }
    for (const std::string& protocol_error : client.protocol_errors()) {
      diag.error("client", protocol_error);
      exit_code = 1;
    }
    std::printf("client: %zu/%zu ok\n", succeeded, results.size());

    if (!args.report.empty()) {
      std::ofstream out(args.report, std::ios::binary);
      out << compose_canonical_report_json(script, job_jsons, succeeded);
      if (!out) {
        diag.error(args.report, "cannot write report");
        return 1;
      }
    }
  }

  if (args.stats) {
    std::optional<Json> stats = client.query_stats(&error);
    if (!stats) {
      diag.error("client", error);
      return 1;
    }
    std::printf("%s\n", stats->write().c_str());
  }
  if (args.health) {
    std::optional<Json> health = client.query_health(&error);
    if (!health) {
      diag.error("client", error);
      return 1;
    }
    std::printf("%s\n", health->write().c_str());
  }
  if (args.drain) {
    std::optional<Json> ack = client.send_drain(&error);
    if (!ack) {
      diag.error("client", error);
      return 1;
    }
    std::printf("%s\n", ack->write().c_str());
  }
  if (args.shutdown) {
    if (!client.send_shutdown()) {
      diag.error("client", "connection lost before shutdown");
      return 1;
    }
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// fuzz: differential fuzzing across the engine pairs (src/fuzz/,
// docs/FUZZING.md).

/// Replays one reproducer. With an explicit --seed the case is first
/// regenerated from that 64-bit case seed and written to the path, so the
/// seed printed by a CI failure line materializes as a committable file.
int cmd_fuzz_repro(const Args& args, const std::optional<OracleKind>& only,
                   const OracleOptions& oracle_options,
                   StreamDiagnostics& diag) {
  FuzzCase c;
  if (args.has("--seed")) {
    c = generate_fuzz_case_from_seed(args.seed,
                                     only.value_or(OracleKind::kSerialVsBulk));
    if (!args.plant_bug.empty()) c.break_spec = args.plant_bug;
    if (!write_repro_file(c, args.repro)) {
      diag.error(args.repro, "cannot write reproducer");
      return 1;
    }
  } else {
    auto parsed = read_repro_file(args.repro);
    if (const auto* err = std::get_if<std::string>(&parsed)) {
      diag.error(args.repro, *err);
      return 2;
    }
    c = std::move(std::get<FuzzCase>(parsed));
    if (only.has_value()) c.oracle = *only;
    if (!args.plant_bug.empty()) c.break_spec = args.plant_bug;
  }

  OracleVerdict verdict;
  try {
    verdict = run_oracle(c, oracle_options);
  } catch (const CancelledError&) {
    diag.error(c.name, "cancelled");
    return 130;
  }
  for (const OracleLeg& leg : verdict.legs) {
    std::printf("  %-28s %s%s%s\n", leg.name.c_str(),
                leg.pass ? "PASS" : "FAIL", leg.detail.empty() ? "" : "  ",
                leg.detail.c_str());
  }
  std::printf("%s [%s seed %llu]: %s\n", c.name.c_str(),
              oracle_name(c.oracle),
              static_cast<unsigned long long>(c.seed),
              verdict.pass ? "PASS" : verdict.first_failure().c_str());

  if (!verdict.pass && args.update) {
    ShrinkOptions shrink;
    shrink.oracle = oracle_options;
    const ShrinkResult r = shrink_case(c, shrink);
    if (r.still_failing) {
      if (!write_repro_file(r.minimized, args.repro)) {
        diag.error(args.repro, "cannot rewrite reproducer");
        return 1;
      }
      std::printf("re-minimized: %zu -> %zu LUTs (%zu oracle runs)\n",
                  r.before.luts, r.after.luts, r.oracle_runs);
    }
  }
  return verdict.pass ? 0 : 1;
}

int cmd_fuzz(const Args& args, StreamDiagnostics& diag) {
  OracleOptions oracle_options;
  if (args.timeout > 0) oracle_options.timeout_seconds = args.timeout;
  oracle_options.cancel = &g_interrupt;

  std::optional<OracleKind> only;
  if (!args.oracle.empty()) {
    only = oracle_from_name(args.oracle);
    if (!only.has_value()) {
      diag.error("fuzz", str_format(
          "unknown oracle '%s' (serial-vs-bulk, bulk-vs-serve, "
          "mono-vs-windowed, compact-vs-legacy, cslow-vs-replicated)",
          args.oracle.c_str()));
      return 2;
    }
  }

  if (!args.repro.empty()) {
    return cmd_fuzz_repro(args, only, oracle_options, diag);
  }

  FuzzDriverOptions options;
  options.seed = args.seed;
  options.cases = args.cases;
  options.budget_seconds = args.budget_s;
  options.only_oracle = only;
  options.out_dir = args.out_dir;
  options.canonical = args.canonical;
  options.oracle = oracle_options;
  options.cancel = &g_interrupt;
  options.break_spec = args.plant_bug;
  options.progress = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  const FuzzRunReport report = run_fuzz(options);
  if (!args.report.empty()) {
    namespace fs = std::filesystem;
    const fs::path parent = fs::path(args.report).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      fs::create_directories(parent, ec);
    }
    std::ofstream out(args.report, std::ios::binary);
    out << report.to_json(args.canonical) << "\n";
    if (!out) {
      diag.error(args.report, "cannot write report");
      return 1;
    }
  }
  std::printf("fuzz: %zu cases, %zu failures (seed %llu, %.1fs)\n",
              report.cases_run, report.failures,
              static_cast<unsigned long long>(report.seed),
              report.wall_seconds);
  return report.failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The command line: one table of commands, one of flags. The parser, the
// range checks, the one-pass alias scripts and the usage text all read
// these two tables and nothing else.

// One bit per command, for the set of commands that read a flag.
enum : std::uint32_t {
  kStats = 1u << 0, kClasses = 1u << 1, kTiming = 1u << 2, kDot = 1u << 3,
  kSweep = 1u << 4, kStrash = 1u << 5, kRegsweep = 1u << 6,
  kDecomposeEn = 1u << 7, kDecomposeSync = 1u << 8, kMap = 1u << 9,
  kRetime = 1u << 10, kCheck = 1u << 11, kFlow = 1u << 12, kBulk = 1u << 13,
  kCorpus = 1u << 14, kBench = 1u << 15, kLoadtest = 1u << 16,
  kFuzz = 1u << 17, kServe = 1u << 18, kClient = 1u << 19,
  // Every command that runs a script through run_flow.
  kRunsFlow = kFlow | kSweep | kStrash | kRegsweep | kDecomposeEn |
              kDecomposeSync | kMap | kRetime,
  // Every command that runs flows, so reads a deadline and budgets.
  kRunsJobs = kRunsFlow | kBulk | kServe | kClient,
};

/// A flag's destination; its type is the flag's type: a switch, a string,
/// or a signed, unsigned or floating-point number.
using Field = std::variant<bool Args::*, std::string Args::*,
                           std::int64_t Args::*, std::uint64_t Args::*,
                           double Args::*>;

/// Accepted values of a numeric flag (unused by switches and strings). Every
/// finite bound is an integer below 2^53, so comparing as double is exact.
struct Range {
  double min;
  double max;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kNone{0, 0};
constexpr Range kNonNegative{0, kInf};
constexpr Range kPositive{1, kInf};
constexpr Range kPort{0, 65535};
constexpr Range kMegabytes{0, static_cast<double>(SIZE_MAX >> 20)};  // << 20
constexpr Range kSeconds{0, 1e9};  // a deadline in int64 nanoseconds
constexpr Range kMillis{0, INT_MAX};
constexpr Range kRetries{0, INT_MAX - 1};  // 1 + retries attempts in an int

struct Flag {
  const char* name;
  const char* value;  ///< placeholder in the usage text; "" for a switch
  Field field;
  Range range;
  std::uint32_t commands;  ///< the commands that read it
  const char* pass_arg;    ///< the pass argument it becomes in an alias
  const char* help;
};

const Flag kFlags[] = {
    // Flow execution.
    {"--profile", "", &Args::profile, kNone, kRunsFlow, nullptr,
     "print per-pass wall time and LUT/FF deltas"},
    {"--verify", "", &Args::verify, kNone, kRunsFlow | kBulk | kClient,
     nullptr, "equivalence spot check after every pass"},
    {"--no-validate", "", &Args::no_validate, kNone,
     kRunsFlow | kBulk | kClient, nullptr,
     "skip the per-pass netlist invariant check"},
    {"--timeout", "S", &Args::timeout, kSeconds, kRunsJobs | kFuzz, nullptr,
     "deadline per flow, job or request in seconds (0 = none)"},
    {"--budget-bdd", "N", &Args::budget_bdd, kNonNegative, kRunsJobs, nullptr,
     "BDD node cap for verification (0 = none)"},
    {"--budget-bmc", "N", &Args::budget_bmc, kNonNegative, kRunsJobs, nullptr,
     "BMC unroll depth cap (0 = none)"},
    {"--budget-rss-mb", "M", &Args::budget_rss_mb, kMegabytes, kRunsJobs,
     nullptr, "peak-RSS budget per flow in MiB (0 = none)"},
    {"--faults", "SPEC", &Args::faults, kNone, kRunsFlow | kBulk | kServe,
     nullptr, "inject faults, e.g. \"pass:retime=throw; write:*=fail@2\""},
    // Pass arguments of the one-pass aliases.
    {"-k", "N", &Args::lut_k, kNonNegative, kMap, "k",
     "LUT input count, 2..6 (default 4)"},
    {"-d", "D", &Args::lut_delay, kNonNegative, kMap | kRetime | kTiming, "d",
     "delay given to a delay-less LUT (default 10)"},
    {"--target", "P", &Args::target, kNonNegative, kRetime, "target",
     "target clock period (default: the minimum feasible)"},
    {"--minperiod", "", &Args::minperiod, kNone, kRetime, "minperiod",
     "minimum period only, no min-area step"},
    {"--no-sharing", "", &Args::no_sharing, kNone, kRetime, "no-sharing",
     "drop the class-limited sharing model"},
    {"--cslow", "C", &Args::cslow, kNonNegative, kRetime, "cslow",
     "C-slow first; with --verify, the pass's cslow-verify"},
    {"--windows", "N", &Args::windows, kNonNegative, kRetime, "windows",
     "windowed: window count (0 = from --window-size)"},
    {"--window-size", "N", &Args::window_size, kPositive, kRetime,
     "window-size", "windowed: vertices per window (default 1024)"},
    {"--window-jobs", "N", &Args::window_jobs, kNonNegative, kRetime,
     "window-jobs", "windowed: worker threads (0 = all cores)"},
    // check.
    {"--formal", "", &Args::formal, kNone, kCheck, nullptr,
     "add BDD reachability equivalence"},
    {"--bmc", "N", &Args::bmc_depth, kNonNegative, kCheck, nullptr,
     "add ternary BMC to depth N"},
    {"--bmc-x-ok", "", &Args::bmc_x_ok, kNone, kCheck, nullptr,
     "BMC: a defined output refining an X is benign"},
    // Batches.
    {"--jobs", "N", &Args::jobs, kNonNegative, kBulk | kServe, nullptr,
     "worker threads (0 = all cores)"},
    {"--out-dir", "D", &Args::out_dir, kNone,
     kBulk | kClient | kFuzz | kBench | kLoadtest, nullptr,
     "output directory (bench, loadtest: default .)"},
    {"--report", "F", &Args::report, kNone, kBulk | kClient | kFuzz, nullptr,
     "write the JSON report to F"},
    {"--canonical", "", &Args::canonical, kNone, kBulk | kClient | kFuzz,
     nullptr, "timing-free, machine-independent report bytes"},
    {"--manifest", "F", &Args::manifest, kNone, kBulk, nullptr,
     "journal finished jobs to F"},
    {"--resume", "", &Args::resume, kNone, kBulk, nullptr,
     "skip the jobs --manifest records as done"},
    {"--retries", "N", &Args::retries, kRetries, kBulk | kClient, nullptr,
     "re-run transient (I/O, busy) failures up to N times"},
    // corpus, bench, loadtest.
    {"--count", "N", &Args::count, kNonNegative, kCorpus, nullptr,
     "random circuits (default 10)"},
    {"--gates", "G", &Args::gates, kNonNegative, kCorpus, nullptr,
     "add one scaled design of ~G LUTs"},
    {"--seed", "S", &Args::seed, kNonNegative,
     kCorpus | kBench | kLoadtest | kFuzz, nullptr,
     "random seed (default 1); fuzz --repro: regenerate it"},
    {"--quick", "", &Args::quick, kNone, kBench | kLoadtest, nullptr,
     "trimmed suite, fewer repetitions"},
    {"--baseline", "D", &Args::baseline, kNone, kBench | kLoadtest, nullptr,
     "gate against the BENCH_*.json documents in D"},
    {"--max-regress", "F", &Args::max_regress, kNonNegative,
     kBench | kLoadtest, nullptr,
     "allowed fractional wall-clock ratio loss (default 0.20)"},
    // fuzz.
    {"--budget-s", "S", &Args::budget_s, kSeconds, kFuzz, nullptr,
     "wall-clock budget (60 when it and --cases are 0)"},
    {"--cases", "N", &Args::cases, kNonNegative, kFuzz, nullptr,
     "case count (0 = until the budget expires)"},
    {"--oracle", "NAME", &Args::oracle, kNone, kFuzz, nullptr,
     "run one engine pair only (docs/FUZZING.md)"},
    {"--repro", "PATH", &Args::repro, kNone, kFuzz, nullptr,
     "replay one reproducer (docs/FUZZING.md)"},
    {"--update", "", &Args::update, kNone, kFuzz, nullptr,
     "re-minimize and rewrite a failing --repro"},
    {"--plant-bug", "SPEC", &Args::plant_bug, kNone, kFuzz, nullptr,
     "sabotage spec for the fuzzer's self-tests"},
    // serve and client (docs/SERVER.md).
    {"--socket", "PATH", &Args::socket, kNone, kServe | kClient, nullptr,
     "Unix-domain socket"},
    {"--port", "N", &Args::port, kPort, kServe | kClient, nullptr,
     "loopback TCP port (0 = ephemeral)"},
    {"--cache-mb", "M", &Args::cache_mb, kMegabytes, kServe, nullptr,
     "result cache size (default 64, 0 = off)"},
    {"--disk-cache-dir", "D", &Args::disk_cache_dir, kNone, kServe, nullptr,
     "crash-safe persistent cache tier in D"},
    {"--disk-cache-mb", "M", &Args::disk_cache_mb, kMegabytes, kServe,
     nullptr, "disk tier size (default 256)"},
    {"--disk-cache-ttl-s", "S", &Args::disk_cache_ttl_s, kNonNegative, kServe,
     nullptr, "age disk entries out after S seconds (0 = never)"},
    {"--max-inflight", "N", &Args::max_inflight, kNonNegative, kServe,
     nullptr, "admission bound on in-flight jobs (0 = none)"},
    {"--retry-after-ms", "MS", &Args::retry_after_ms, kMillis, kServe,
     nullptr, "retry hint in busy replies (default 200)"},
    {"--retry-base-ms", "MS", &Args::retry_base_ms, kMillis, kClient,
     nullptr, "retry backoff base (default 50)"},
    {"--tenant", "T", &Args::tenant, kNone, kClient, nullptr,
     "fair-share bucket"},
    {"--hello", "", &Args::hello, kNone, kClient, nullptr,
     "print the daemon's greeting"},
    {"--stats", "", &Args::stats, kNone, kClient, nullptr,
     "print the daemon's stats frame"},
    {"--health", "", &Args::health, kNone, kClient, nullptr,
     "print the daemon's health frame"},
    {"--drain", "", &Args::drain, kNone, kClient, nullptr,
     "ask the daemon to drain"},
    {"--shutdown", "", &Args::shutdown, kNone, kClient, nullptr,
     "stop the daemon when done"},
};

constexpr std::size_t kMany = SIZE_MAX;

struct Command {
  const char* name;
  std::uint32_t bit;
  std::size_t min_args;  ///< positional arguments
  std::size_t max_args;
  const char* args;  ///< positional arguments in the usage text
  int (*handler)(const Args&, StreamDiagnostics&);
  const char* pass;  ///< for an alias (no handler): the pass it runs
  const char* help;
};

const Command kCommands[] = {
    {"stats", kStats, 1, 1, "<in.blif>", cmd_stats, nullptr,
     "circuit statistics"},
    {"classes", kClasses, 1, 1, "<in.blif>", cmd_classes, nullptr,
     "register class report"},
    {"timing", kTiming, 1, 1, "<in.blif>", cmd_timing, nullptr,
     "worst-path timing report"},
    {"dot", kDot, 2, 2, "<in.blif> <out.dot>", cmd_dot, nullptr,
     "netlist as Graphviz dot"},
    {"sweep", kSweep, 2, 2, "<in.blif> <out.blif>", nullptr, "sweep",
     "constant folding + dead logic"},
    {"strash", kStrash, 2, 2, "<in.blif> <out.blif>", nullptr, "strash",
     "merge duplicate nodes"},
    {"regsweep", kRegsweep, 2, 2, "<in.blif> <out.blif>", nullptr, "regsweep",
     "merge duplicate registers"},
    {"decompose-en", kDecomposeEn, 2, 2, "<in.blif> <out.blif>", nullptr,
     "decompose-en", "load enables -> feedback muxes (baseline)"},
    {"decompose-sync", kDecomposeSync, 2, 2, "<in.blif> <out.blif>", nullptr,
     "decompose-sync", "synchronous set/clear -> gates before D"},
    {"map", kMap, 2, 2, "<in.blif> <out.blif>", nullptr, "map",
     "decompose + FlowMap k-LUT map"},
    {"retime", kRetime, 2, 2, "<in.blif> <out.blif>", nullptr, "retime",
     "multiple-class retiming (--window*: \"retime-windowed\")"},
    {"check", kCheck, 2, 2, "<a.blif> <b.blif>", cmd_check, nullptr,
     "sequential equivalence (simulation, optionally BMC and BDDs)"},
    {"flow", kFlow, 3, 3, "\"<script>\" <in.blif> <out.blif>", cmd_flow,
     nullptr, "run a pass script, e.g. \"sweep; strash; retime(target=24)\""},
    {"bulk", kBulk, 2, kMany, "\"<script>\" <in.blif|dir>...", cmd_bulk,
     nullptr, "run one flow script over many circuits in parallel"},
    {"corpus", kCorpus, 1, 1, "<out-dir>", cmd_corpus, nullptr,
     "write a deterministic randomized BLIF corpus"},
    {"bench", kBench, 0, 0, "", cmd_bench, nullptr,
     "engines vs reference formulations, the paper's tables; BENCH_*.json"},
    {"loadtest", kLoadtest, 0, 0, "", cmd_loadtest, nullptr,
     "chaos load harness for the serve stack; BENCH_serve.json"},
    {"fuzz", kFuzz, 0, 0, "", cmd_fuzz, nullptr,
     "differential fuzzing across the engine pairs"},
    {"serve", kServe, 0, 0, "", cmd_serve, nullptr,
     "persistent retiming daemon with a result cache"},
    {"client", kClient, 0, kMany, "[\"<script>\" <in.blif|dir>...]",
     cmd_client, nullptr, "submit circuits to a daemon, or control it"},
};

std::string flag_synopsis(const Flag& flag) {
  return *flag.value ? std::string(flag.name) + " " + flag.value : flag.name;
}

/// The usage text: per command its arguments, what it does and the flags
/// it reads; then one line per flag.
int usage() {
  std::string text =
      "usage: mcrt <command> [flags] <arguments>   (mcrt --version)\n";
  for (const Command& command : kCommands) {
    text += str_format("  %s%s%s\n      %s", command.name,
                       *command.args ? " " : "", command.args, command.help);
    if (command.pass != nullptr) {
      text += str_format(" (flow \"%s\")", command.pass);
    }
    std::string line = "\n     ";
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0) continue;
      const std::string item = " [" + flag_synopsis(flag) + "]";
      if (line.size() + item.size() > 80) {
        text += line;
        line = "\n     ";
      }
      line += item;
    }
    if (line.size() > 6) text += line;
    text += "\n";
  }
  text += "flags:\n";
  for (const Flag& flag : kFlags) {
    text += str_format("  %-22s %s\n", flag_synopsis(flag).c_str(), flag.help);
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

std::string bound_text(double bound) {
  return std::isinf(bound) ? "inf" : str_format("%.0f", bound);
}

/// Stores `text` into the flag's field: strings as given, numbers parsed
/// whole and range-checked. Returns the problem, if any.
std::optional<std::string> assign(const Flag& flag, const std::string& text,
                                  Args* args) {
  return std::visit(
      [&](auto field) -> std::optional<std::string> {
        auto& out = args->*field;
        using T = std::remove_reference_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          out = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          out = text;
        } else {
          T value{};
          if (!parse_number(text, &value)) {
            return "invalid numeric value '" + text + "'";
          }
          const double x = static_cast<double>(value);
          if (x < flag.range.min || x > flag.range.max) {
            return str_format("value %s out of range [%s, %s]", text.c_str(),
                              bound_text(flag.range.min).c_str(),
                              bound_text(flag.range.max).c_str());
          }
          out = value;
        }
        return std::nullopt;
      },
      flag.field);
}

/// Reads argv[2..] into `args`: `--flag v` or `--flag=v` for a value, bare
/// `--flag` for a switch, anything else positional. Returns the first
/// problem: an unknown flag, one `command` does not read, a bad value or a
/// positional count outside the command's range.
std::optional<std::string> parse_args(const Command& command, int argc,
                                      char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      args->positionals.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return name == f.name; });
    if (flag == std::end(kFlags)) return "unknown flag " + name;
    if ((flag->commands & command.bit) == 0) {
      return str_format("%s does not take %s", command.name, name.c_str());
    }
    const bool is_switch = std::holds_alternative<bool Args::*>(flag->field);
    std::string value;
    if (eq != std::string::npos) {
      if (is_switch) return name + " takes no value";
      value = arg.substr(eq + 1);
    } else if (!is_switch) {
      if (i + 1 == argc) return name + " needs a value";
      value = argv[++i];
    }
    if (auto error = assign(*flag, value, args)) return name + ": " + *error;
    args->given[flag->name] = value;
  }
  const std::size_t n = args->positionals.size();
  if (n < command.min_args || n > command.max_args) {
    if (command.max_args == 0) {
      return str_format("%s takes no arguments, got %zu", command.name, n);
    }
    return str_format("%s expects %s, got %zu argument%s", command.name,
                      command.args, n, n == 1 ? "" : "s");
  }
  return std::nullopt;
}

/// A one-pass alias runs the flow script "<pass>(<args>)": every given flag
/// with a pass argument contributes `arg` (a switch) or `arg=value`, the
/// value text as given and already checked by the parser.
int run_alias(const Command& command, Args args, StreamDiagnostics& diag) {
  std::string pass = command.pass;
  std::string pass_args;
  for (const Flag& flag : kFlags) {
    const auto given = args.given.find(flag.name);
    if (flag.pass_arg == nullptr || given == args.given.end()) continue;
    if (starts_with(flag.name, "--window")) pass = "retime-windowed";
    if (!pass_args.empty()) pass_args += ",";
    pass_args += flag.pass_arg;
    if (!given->second.empty()) pass_args += "=" + given->second;
  }
  // A C-slowed netlist interleaves C streams, so the flow-level
  // input-vs-output spot check cannot apply; --verify maps to the pass's
  // stream-equivalence + ternary-BMC self-check instead.
  if (args.has("--cslow") && args.verify) {
    pass_args += ",cslow-verify";
    args.verify = false;
  }
  const std::string script =
      pass_args.empty() ? pass : pass + "(" + pass_args + ")";
  return run_flow(script, args.positionals[0], args.positionals[1], args,
                  diag);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                    std::strcmp(argv[1], "version") == 0)) {
    std::printf("%s\n", version_line().c_str());
    return 0;
  }
  const auto command = std::find_if(
      std::begin(kCommands), std::end(kCommands), [&](const Command& c) {
        return argc >= 2 && std::strcmp(argv[1], c.name) == 0;
      });
  if (command == std::end(kCommands)) return usage();
  StreamDiagnostics diag(stderr);
  Args args;
  if (const auto error = parse_args(*command, argc, argv, &args)) {
    diag.error("mcrt", *error);
    return 2;
  }

  // ctrl-C requests a clean cooperative stop: in-flight flows unwind at
  // their next engine poll and report "cancelled" instead of dying mid-write.
  std::signal(SIGINT, handle_sigint);
  // A dropped client mid-reply must surface as a write error on that
  // session, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  return command->handler != nullptr ? command->handler(args, diag)
                                     : run_alias(*command, args, diag);
}
