// Schema validation, regression gating and serialization of the bench
// harness. The heavy end-to-end run is covered by the cli_bench_quick smoke
// test; here the report-shape logic is pinned on hand-built documents.
#include "perf/bench.h"

#include <gtest/gtest.h>

#include <variant>

namespace mcrt {
namespace {

Json entry(const char* circuit, double speedup, bool identical = true) {
  Json e = Json::object();
  e.set("circuit", circuit);
  e.set("constraints_seconds", 1.0);
  e.set("csr_seconds", 1.0 / speedup);
  e.set("speedup_vs_constraints", speedup);
  e.set("identical", identical);
  return e;
}

Json report(std::initializer_list<Json> entries, double geomean) {
  Json::Array array;
  for (const Json& e : entries) array.push_back(e);
  Json summary = Json::object();
  summary.set("circuits", array.size());
  summary.set("geomean_speedup", geomean);
  summary.set("all_identical", true);
  Json doc = Json::object();
  doc.set("schema", kBenchRetimeSchema);
  doc.set("options", Json::object());
  doc.set("entries", Json(std::move(array)));
  doc.set("summary", std::move(summary));
  return doc;
}

TEST(BenchReportTest, ValidReportPasses) {
  const Json doc = report({entry("C1", 2.5), entry("C2", 3.0)}, 2.7);
  EXPECT_EQ(validate_bench_report(doc, kBenchRetimeSchema), "");
}

TEST(BenchReportTest, SchemaMismatchRejected) {
  const Json doc = report({entry("C1", 2.5)}, 2.5);
  EXPECT_NE(validate_bench_report(doc, kBenchSimSchema), "");
}

TEST(BenchReportTest, DivergedEnginesRejected) {
  const Json doc = report({entry("C1", 2.5, /*identical=*/false)}, 2.5);
  const std::string problem = validate_bench_report(doc, kBenchRetimeSchema);
  EXPECT_NE(problem.find("diverged"), std::string::npos) << problem;
}

TEST(BenchReportTest, EmptyAndMalformedRejected) {
  EXPECT_NE(validate_bench_report(Json("nope"), kBenchRetimeSchema), "");
  EXPECT_NE(validate_bench_report(report({}, 1.0), kBenchRetimeSchema), "");
  Json no_speedup = Json::object();
  no_speedup.set("circuit", "C1");
  no_speedup.set("identical", true);
  EXPECT_NE(validate_bench_report(report({no_speedup}, 1.0),
                                  kBenchRetimeSchema),
            "");
}

TEST(BenchRegressionTest, WithinToleranceIsClean) {
  const Json baseline = report({entry("C1", 2.0), entry("C2", 4.0)}, 2.8);
  // 15% slower than baseline everywhere: inside a 20% gate.
  const Json current = report({entry("C1", 1.7), entry("C2", 3.4)}, 2.4);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, RegressionBeyondToleranceFlagged) {
  // C1 falls beyond the 20% floor; the geomean stays inside it so only the
  // per-circuit column is flagged.
  const Json baseline = report({entry("C1", 2.0), entry("C2", 4.0)}, 2.8);
  const Json current = report({entry("C1", 1.2), entry("C2", 4.0)}, 2.4);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C1"), std::string::npos);
}

TEST(BenchRegressionTest, ImprovementNeverFlagged) {
  const Json baseline = report({entry("C1", 2.0)}, 2.0);
  const Json current = report({entry("C1", 20.0)}, 20.0);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
}

TEST(BenchRegressionTest, MissingCircuitFlagged) {
  const Json baseline = report({entry("C1", 2.0), entry("C2", 4.0)}, 2.8);
  const Json current = report({entry("C1", 2.0)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_FALSE(regressions.empty());
  EXPECT_NE(regressions[0].find("C2"), std::string::npos);
}

TEST(BenchRegressionTest, SummaryGeomeanGated) {
  const Json baseline = report({entry("C1", 2.0)}, 4.0);
  const Json current = report({entry("C1", 2.0)}, 2.0);
  const auto regressions = bench_regressions(current, baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("summary"), std::string::npos);
}

// Paper reports carry Table 2 rows instead of speedup columns.
Json paper_entry(const char* circuit, std::int64_t delay, std::int64_t ff,
                 bool eq = true) {
  Json row = Json::object();
  row.set("ff", ff);
  row.set("lut", 100);
  row.set("delay", delay);
  row.set("eq", eq);
  Json e = Json::object();
  e.set("circuit", circuit);
  e.set("table2", std::move(row));
  return e;
}

Json paper_report(std::initializer_list<Json> entries) {
  Json::Array array;
  for (const Json& e : entries) array.push_back(e);
  Json fig1 = Json::object();
  fig1.set("circuit", "fig1_w2");
  array.push_back(std::move(fig1));
  Json summary = Json::object();
  summary.set("circuits", array.size() - 1);
  Json doc = Json::object();
  doc.set("schema", kBenchPaperSchema);
  doc.set("options", Json::object());
  doc.set("entries", Json(std::move(array)));
  doc.set("summary", std::move(summary));
  return doc;
}

// A C-slow document: deterministic period ratios.
Json cslow_report(double c2_ratio) {
  Json e = Json::object();
  e.set("circuit", "k_ring_c2");
  e.set("speedup_throughput", c2_ratio);
  e.set("identical", true);
  Json summary = Json::object();
  summary.set("circuits", 1);
  summary.set("geomean_speedup", 1.75);
  summary.set("all_identical", true);
  Json doc = Json::object();
  doc.set("schema", kBenchCslowSchema);
  doc.set("options", Json::object());
  doc.set("entries", Json(Json::Array{e}));
  doc.set("summary", std::move(summary));
  return doc;
}

TEST(BenchReportTest, PaperReportPasses) {
  const Json doc = paper_report({paper_entry("C1", 20, 42)});
  EXPECT_EQ(validate_bench_report(doc, kBenchPaperSchema), "");
}

TEST(BenchReportTest, PaperReportWithFailedEquivalenceRejected) {
  const Json doc = paper_report(
      {paper_entry("C1", 20, 42), paper_entry("C2", 40, 14, /*eq=*/false)});
  const std::string problem = validate_bench_report(doc, kBenchPaperSchema);
  EXPECT_NE(problem.find("C2"), std::string::npos) << problem;
  EXPECT_NE(problem.find("eq=false"), std::string::npos) << problem;
}

TEST(BenchReportTest, PaperReportWithoutTable2RowsRejected) {
  EXPECT_NE(validate_bench_report(paper_report({}), kBenchPaperSchema), "");
}

TEST(BenchRegressionTest, DeterministicDocumentsGetNoSlack) {
  EXPECT_EQ(bench_gate_slack(kBenchPaperSchema, 0.20), 0.0);
  EXPECT_EQ(bench_gate_slack(kBenchCslowSchema, 0.20), 0.0);
  EXPECT_EQ(bench_gate_slack(kBenchRetimeSchema, 0.20), 0.20);
  EXPECT_EQ(bench_gate_slack(kBenchSimSchema, 0.20), 0.20);
  EXPECT_EQ(bench_gate_slack(kBenchWindowSchema, 0.20), 0.20);
}

TEST(BenchRegressionTest, PaperDelayAndRegistersGatedExactly) {
  const double slack = bench_gate_slack(kBenchPaperSchema, 0.20);
  const Json baseline =
      paper_report({paper_entry("C1", 20, 42), paper_entry("C2", 40, 14)});
  // C1's delay up by one LUT level (10).
  auto regressions = bench_regressions(
      paper_report({paper_entry("C1", 30, 42), paper_entry("C2", 40, 14)}),
      baseline, slack);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C1: table2.delay"), std::string::npos)
      << regressions[0];
  // C2 with one more register.
  regressions = bench_regressions(
      paper_report({paper_entry("C1", 20, 42), paper_entry("C2", 40, 15)}),
      baseline, slack);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C2: table2.ff"), std::string::npos)
      << regressions[0];
}

TEST(BenchRegressionTest, PaperMissingCircuitFlagged) {
  const Json baseline =
      paper_report({paper_entry("C1", 20, 42), paper_entry("C2", 40, 14)});
  const Json current = paper_report({paper_entry("C1", 20, 42)});
  const auto regressions = bench_regressions(current, baseline, 0.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("C2: missing"), std::string::npos)
      << regressions[0];
}

TEST(BenchRegressionTest, PaperImprovementPasses) {
  const Json baseline =
      paper_report({paper_entry("C1", 20, 42), paper_entry("C2", 40, 14)});
  const Json current =
      paper_report({paper_entry("C1", 10, 40), paper_entry("C2", 30, 14)});
  EXPECT_TRUE(bench_regressions(current, baseline, 0.0).empty());
}

TEST(BenchRegressionTest, CslowRatioGatedExactly) {
  // A 1% drop in a deterministic period ratio: inside a 20% wall-clock
  // slack, but the C-slow document gets none.
  const Json baseline = cslow_report(1.75);
  const Json current = cslow_report(1.75 * 0.99);
  EXPECT_TRUE(bench_regressions(current, baseline, 0.20).empty());
  const auto regressions = bench_regressions(
      current, baseline, bench_gate_slack(kBenchCslowSchema, 0.20));
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("k_ring_c2: speedup_throughput"),
            std::string::npos)
      << regressions[0];
  EXPECT_TRUE(bench_regressions(cslow_report(1.75), baseline, 0.0).empty());
}

// A retime entry with calibrated seconds for both sides.
Json calibrated_entry(double constraints, double csr) {
  Json e = entry("C1", constraints / csr);
  e.set("constraints_calibrated", constraints);
  e.set("csr_calibrated", csr);
  return e;
}

TEST(BenchRegressionTest, CalibratedSecondsAreCeilings) {
  const Json baseline = report({calibrated_entry(400, 100)}, 4.0);
  // Both sides 15% slower: the ratio holds and each ceiling has room.
  EXPECT_TRUE(bench_regressions(report({calibrated_entry(460, 115)}, 4.0),
                                baseline, 0.20)
                  .empty());
  // The FEAS side 25% slower while the reference slows as much: the
  // speedup ratio is unchanged, the calibrated ceiling catches it.
  auto regressions = bench_regressions(
      report({calibrated_entry(500, 125)}, 4.0), baseline, 0.20);
  ASSERT_EQ(regressions.size(), 2u);
  EXPECT_NE(regressions[0].find("C1: constraints_calibrated regressed"),
            std::string::npos)
      << regressions[0];
  EXPECT_NE(regressions[1].find("C1: csr_calibrated regressed"),
            std::string::npos)
      << regressions[1];
  // A much faster run passes.
  EXPECT_TRUE(bench_regressions(report({calibrated_entry(40, 10)}, 4.0),
                                baseline, 0.20)
                  .empty());
  // A calibrated column the baseline records must be present.
  regressions =
      bench_regressions(report({entry("C1", 4.0)}, 4.0), baseline, 0.20);
  ASSERT_EQ(regressions.size(), 2u);
  EXPECT_NE(regressions[0].find("missing"), std::string::npos)
      << regressions[0];
}

// A window document: speedup_vs_monolithic plus calibrated seconds.
Json window_report(double monolithic, double windowed) {
  Json e = Json::object();
  e.set("circuit", "s4k");
  e.set("monolithic_calibrated", monolithic);
  e.set("windowed_calibrated", windowed);
  e.set("speedup_vs_monolithic", monolithic / windowed);
  e.set("identical", true);
  Json summary = Json::object();
  summary.set("circuits", 1);
  summary.set("geomean_speedup", monolithic / windowed);
  summary.set("all_identical", true);
  Json doc = Json::object();
  doc.set("schema", kBenchWindowSchema);
  doc.set("options", Json::object());
  doc.set("entries", Json(Json::Array{e}));
  doc.set("summary", std::move(summary));
  return doc;
}

TEST(BenchRegressionTest, WindowGatesCalibratedSecondsNotSpeedup) {
  const Json baseline = window_report(4000, 1000);
  // A faster monolithic reference: the ratio falls from 4x to 0.01x,
  // which is not a regression.
  EXPECT_TRUE(
      bench_regressions(window_report(1, 1000), baseline, 0.20).empty());
  // A slower windowed side is one, whatever the reference did.
  const auto regressions =
      bench_regressions(window_report(1, 1300), baseline, 0.20);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("s4k: windowed_calibrated regressed"),
            std::string::npos)
      << regressions[0];
}

TEST(BenchReportTest, PrettyWriterRoundTrips) {
  const Json doc = report({entry("C1", 2.5), entry("C2", 3.0)}, 2.7);
  const std::string text = write_bench_report(doc);
  // One entry per line for reviewable diffs.
  EXPECT_NE(text.find("\n    {"), std::string::npos);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(std::holds_alternative<Json>(parsed));
  EXPECT_EQ(std::get<Json>(parsed).write(), doc.write());
}

}  // namespace
}  // namespace mcrt
