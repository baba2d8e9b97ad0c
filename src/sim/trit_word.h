// 64 ternary values packed dual-rail into two machine words: the lane type
// of the bit-parallel WordSimulator (sim/word_simulator.h) and of the
// callers that pack stimulus for it.
#pragma once

#include <cstdint>

#include "netlist/truth_table.h"

namespace mcrt {

/// 64 ternary values: bit v set in `ones` = vector v is 1; in `zeros` = 0;
/// in neither = X. `ones & zeros` must stay empty.
struct TritWord {
  std::uint64_t ones = 0;
  std::uint64_t zeros = 0;

  static TritWord all(Trit t) {
    switch (t) {
      case Trit::kOne: return {~0ull, 0};
      case Trit::kZero: return {0, ~0ull};
      case Trit::kUnknown: return {0, 0};
    }
    return {0, 0};
  }
  [[nodiscard]] Trit lane(unsigned v) const {
    if ((ones >> v) & 1) return Trit::kOne;
    if ((zeros >> v) & 1) return Trit::kZero;
    return Trit::kUnknown;
  }
  void set_lane(unsigned v, Trit t) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    ones &= ~bit;
    zeros &= ~bit;
    if (t == Trit::kOne) ones |= bit;
    if (t == Trit::kZero) zeros |= bit;
  }
  bool operator==(const TritWord&) const = default;
};

/// Lane-wise ternary if-then-else: `a` where ctrl is 1, `b` where it is 0,
/// and the merge of `a` and `b` (defined only where they agree) where it
/// is X.
[[nodiscard]] inline TritWord tritword_ite(TritWord ctrl, TritWord a,
                                           TritWord b) {
  const std::uint64_t x = ~ctrl.ones & ~ctrl.zeros;
  TritWord out;
  out.ones = (ctrl.ones & a.ones) | (ctrl.zeros & b.ones) |
             (x & a.ones & b.ones);
  out.zeros = (ctrl.ones & a.zeros) | (ctrl.zeros & b.zeros) |
              (x & a.zeros & b.zeros);
  return out;
}

}  // namespace mcrt
