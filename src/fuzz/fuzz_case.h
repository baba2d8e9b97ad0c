// Self-contained differential fuzz cases and the `mcrt-fuzz-repro/1`
// reproducer file format.
//
// A FuzzCase is everything one differential check needs: a circuit, a flow
// script, and the engine pair (oracle) that must agree on it. Cases are
// sampled by src/fuzz/case_gen.h, executed by src/fuzz/oracles.h, and
// minimized by src/fuzz/shrinker.h; a failing case round-trips through a
// single text file so a CI failure line can be replayed locally with
// `mcrt fuzz --repro <file>` and committed to testdata/fuzz/ once fixed.
//
// Reproducer format (text, one header per line, then the circuit):
//
//   # mcrt-fuzz-repro/1
//   name: fuzz-serial-vs-bulk-s42
//   seed: 42
//   oracle: serial-vs-bulk
//   break: flip-lut              (optional: sabotage spec, self-tests only)
//   script: sweep; retime(d=10)
//   blif:
//   .model ...                   (extended BLIF until end of file)
//
// Gate delays are not part of the BLIF exchange format; sampled circuits
// are delay-free and the flow scripts assign delays (retime(d=10), map(d)),
// so the round trip is behaviourally exact and byte-stable for every case
// the fuzzer produces. (BLIF may materialize an alias buffer where an
// output name differs from its driving net — the bytes and behaviour are
// what the oracles compare, not node-for-node structure.)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "netlist/netlist.h"

namespace mcrt {

/// The five engine pairs the fuzzer cross-checks (ROADMAP: serial vs bulk
/// vs serve execution, monolithic vs windowed retiming, compact vs legacy
/// cores, C-slowed vs replicated stream semantics).
enum class OracleKind : std::uint8_t {
  kSerialVsBulk,       ///< execute_flow_job vs BulkRunner, byte identity
  kBulkVsServe,        ///< BulkRunner vs a live `mcrt serve` round-trip
  kMonoVsWindowed,     ///< retime(...) vs retime-windowed(...) flows
  kCompactVsLegacy,    ///< FEAS and equivalence engine pairs, FlowMap
                       ///< structure and behaviour
  kCslowVsReplicated,  ///< retime(cslow=C) vs C independent copies (stream
                       ///< interleave sim + ternary BMC + period dominance)
};
inline constexpr std::size_t kOracleCount = 5;

[[nodiscard]] const char* oracle_name(OracleKind kind) noexcept;
[[nodiscard]] std::optional<OracleKind> oracle_from_name(
    std::string_view name) noexcept;

/// One sampled differential case.
struct FuzzCase {
  std::string name;
  std::uint64_t seed = 0;  ///< case seed: the replay key printed by CI
  OracleKind oracle = OracleKind::kSerialVsBulk;
  std::string script;
  /// Sabotage spec the case was found under (planted-bug self-tests only;
  /// empty for real cases). Stored in the repro so replay is exact.
  std::string break_spec;
  Netlist netlist;
};

/// Distinct register clock nets (0 for a combinational circuit). The
/// 3-valued simulators are single-clock, so behavioural oracle legs
/// (simulation equivalence, ternary BMC) apply only when this is <= 1;
/// byte-identity and period/legality legs always apply.
[[nodiscard]] std::size_t clock_domain_count(const Netlist& netlist);

/// Serializes a case as an `mcrt-fuzz-repro/1` document.
[[nodiscard]] std::string write_repro_string(const FuzzCase& c);
bool write_repro_file(const FuzzCase& c, const std::string& path);

/// Parses a reproducer; the error string carries the offending line.
[[nodiscard]] std::variant<FuzzCase, std::string> read_repro_string(
    const std::string& text);
[[nodiscard]] std::variant<FuzzCase, std::string> read_repro_file(
    const std::string& path);

}  // namespace mcrt
