// Differential oracles: run one FuzzCase's engine pair and cross-check.
//
// Every oracle decomposes into named "legs" — individual checks such as
// canonical-report byte identity, result-BLIF byte identity, input-vs-result
// simulation equivalence, minperiod agreement of the FEAS cores, or the
// structural and behavioural checks of a FlowMap result. A leg either
// passes or carries a human-readable mismatch description; the verdict
// aggregates them so a fuzz report (and a shrinker re-run) can say exactly
// *which* promise between the engines broke, not just that something did.
//
// Sabotage: install_break() plants a deliberately broken pass into a
// registry under a standard pass name, exploiting that
// PassRegistry::register_pass() keeps the first registration — the broken
// pass is registered *before* register_standard_passes(), so the standard
// one silently loses. This is how the harness self-test proves the oracles
// catch real miscompiles end to end (find -> shrink -> reproducer).
#pragma once

#include <string>
#include <vector>

#include "base/cancel.h"
#include "fuzz/fuzz_case.h"
#include "pipeline/pass_manager.h"

namespace mcrt {

struct OracleOptions {
  /// Per flow-run deadline in seconds (0 = none). Each oracle runs at most
  /// a handful of flows, so the whole check is bounded by a small multiple.
  double timeout_seconds = 30.0;
  const CancelToken* cancel = nullptr;
  /// Allow the (slower) exhaustive ternary-BMC leg on small single-clock
  /// cases. Off for shrinking, where the oracle runs hundreds of times.
  bool enable_bmc = true;
};

/// One executed check inside an oracle.
struct OracleLeg {
  std::string name;
  bool pass = true;
  std::string detail;  ///< mismatch description (populated on failure)
};

struct OracleVerdict {
  bool pass = true;
  std::vector<OracleLeg> legs;

  /// "<leg>: <detail>" of the first failing leg; empty when pass.
  [[nodiscard]] std::string first_failure() const;
};

/// Registers the sabotage described by `spec` into `registry`. Must be
/// called before register_standard_passes() so the broken pass shadows the
/// real one. Known specs:
///
///   flip-lut   "sweep" runs the real sweep, then flips the truth table of
///              the first LUT with at least one input — a one-gate
///              miscompile every behavioural leg must catch.
///
/// Returns false and sets *error on an unknown spec.
bool install_break(PassRegistry& registry, const std::string& spec,
                   std::string* error);

/// Builds the registry a case runs under: the case's break (if any), then
/// the standard passes. Returns false and sets *error on an unknown break.
bool make_fuzz_registry(const FuzzCase& c, PassRegistry& registry,
                        std::string* error);

/// Runs the case's engine pair and cross-checks the results.
[[nodiscard]] OracleVerdict run_oracle(const FuzzCase& c,
                                       const OracleOptions& options = {});

}  // namespace mcrt
