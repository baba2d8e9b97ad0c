#include "sim/trit_word.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "sim/word_simulator.h"

namespace mcrt {
namespace {

TEST(TritWordTest, LaneAccess) {
  TritWord w;
  w.set_lane(0, Trit::kOne);
  w.set_lane(1, Trit::kZero);
  w.set_lane(2, Trit::kUnknown);
  EXPECT_EQ(w.lane(0), Trit::kOne);
  EXPECT_EQ(w.lane(1), Trit::kZero);
  EXPECT_EQ(w.lane(2), Trit::kUnknown);
  w.set_lane(0, Trit::kZero);
  EXPECT_EQ(w.lane(0), Trit::kZero);
  EXPECT_EQ((w.ones & w.zeros), 0u);
}

TEST(TritWordTest, EvalMatchesScalarTernary) {
  // The word engine's per-node evaluation, driven through a one-LUT
  // netlist, against TruthTable::eval_ternary lane by lane.
  Rng rng(3);
  const TruthTable tables[] = {
      TruthTable::and_n(3),  TruthTable::xor_n(2), TruthTable::mux21(),
      TruthTable::nor_n(4),  TruthTable::inverter(),
      TruthTable(4, rng.next()), TruthTable(5, rng.next()),
      TruthTable(6, rng.next()),
  };
  for (const TruthTable& f : tables) {
    Netlist n;
    std::vector<NetId> ins;
    for (std::uint32_t i = 0; i < f.input_count(); ++i) {
      ins.push_back(n.add_input("i" + std::to_string(i)));
    }
    n.add_output("o", n.add_lut(f, ins));
    WordSimulator sim(n);
    Trit scalar[6][64];
    for (std::uint32_t i = 0; i < f.input_count(); ++i) {
      TritWord pin;
      for (unsigned lane = 0; lane < 64; ++lane) {
        const Trit t = static_cast<Trit>(rng.below(3));
        pin.set_lane(lane, t);
        scalar[i][lane] = t;
      }
      sim.set_input(ins[i], pin);
    }
    sim.settle();
    const TritWord out = sim.output_values()[0];
    for (unsigned lane = 0; lane < 64; ++lane) {
      Trit lane_pins[6];
      for (std::uint32_t i = 0; i < f.input_count(); ++i) {
        lane_pins[i] = scalar[i][lane];
      }
      EXPECT_EQ(out.lane(lane), f.eval_ternary(lane_pins))
          << f.to_string() << " lane " << lane;
    }
  }
}

TEST(TritWordTest, MergeAndIteMatchScalar) {
  // An X control merges the two data words: defined only where they agree.
  const Trit values[] = {Trit::kZero, Trit::kOne, Trit::kUnknown};
  for (const Trit a : values) {
    for (const Trit b : values) {
      const TritWord wa = TritWord::all(a);
      const TritWord wb = TritWord::all(b);
      for (const Trit c : values) {
        const TritWord out = tritword_ite(TritWord::all(c), wa, wb);
        Trit expected;
        switch (c) {
          case Trit::kOne: expected = a; break;
          case Trit::kZero: expected = b; break;
          default: expected = trit_merge(a, b);
        }
        EXPECT_EQ(out.lane(0), expected)
            << trit_char(c) << "?" << trit_char(a) << ":" << trit_char(b);
      }
    }
  }
}

}  // namespace
}  // namespace mcrt
