// Tests for the smooth weighted round-robin (nginx-style) comparison
// dispatcher.
#include <gtest/gtest.h>

#include <vector>

#include "dispatch/swrr.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::alloc::Allocation;
using hs::dispatch::SwrrDispatcher;

std::vector<size_t> take(SwrrDispatcher& d, size_t count) {
  hs::rng::Xoshiro256 gen(1);
  std::vector<size_t> sequence;
  for (size_t i = 0; i < count; ++i) {
    sequence.push_back(d.pick(gen));
  }
  return sequence;
}

TEST(Swrr, ClassicNginxExample) {
  // The canonical {5, 1, 1} (normalized) smooth WRR schedule:
  // a a b a c a a — machine 0 never runs twice more than needed in a row
  // beyond its weight's requirement and the others are spread out.
  SwrrDispatcher d{Allocation({5.0 / 7, 1.0 / 7, 1.0 / 7})};
  const auto seq = take(d, 7);
  EXPECT_EQ(seq, (std::vector<size_t>{0, 0, 1, 0, 2, 0, 0}));
}

TEST(Swrr, CountsMatchWeightsPerCycle) {
  SwrrDispatcher d{Allocation({0.5, 0.25, 0.125, 0.125})};
  std::vector<int> counts(4, 0);
  for (size_t machine : take(d, 64)) {
    counts[machine]++;
  }
  EXPECT_EQ(counts[0], 32);
  EXPECT_EQ(counts[1], 16);
  EXPECT_EQ(counts[2], 8);
  EXPECT_EQ(counts[3], 8);
}

TEST(Swrr, ProportionalInAnyPrefix) {
  const std::vector<double> fractions = {0.35, 0.22, 0.15, 0.12,
                                         0.04, 0.04, 0.04, 0.04};
  SwrrDispatcher d{Allocation(fractions)};
  std::vector<uint64_t> counts(fractions.size(), 0);
  hs::rng::Xoshiro256 gen(1);
  for (size_t k = 1; k <= 2000; ++k) {
    counts[d.pick(gen)]++;
    if (k % 400 == 0) {
      for (size_t i = 0; i < fractions.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(counts[i]),
                    fractions[i] * static_cast<double>(k), 2.0)
            << "machine " << i << " after " << k;
      }
    }
  }
}

TEST(Swrr, EqualWeightsRoundRobin) {
  SwrrDispatcher d{Allocation({0.25, 0.25, 0.25, 0.25})};
  const auto seq = take(d, 8);
  // Each cycle of 4 covers all machines.
  for (size_t cycle = 0; cycle < 2; ++cycle) {
    std::vector<bool> seen(4, false);
    for (size_t k = 0; k < 4; ++k) {
      seen[seq[cycle * 4 + k]] = true;
    }
    for (bool s : seen) {
      EXPECT_TRUE(s);
    }
  }
}

TEST(Swrr, ZeroFractionNeverSelected) {
  SwrrDispatcher d{Allocation({0.5, 0.0, 0.5})};
  for (size_t machine : take(d, 100)) {
    EXPECT_NE(machine, 1u);
  }
}

TEST(Swrr, ResetRestoresSequence) {
  SwrrDispatcher d{Allocation({0.6, 0.4})};
  const auto first = take(d, 50);
  d.reset();
  const auto second = take(d, 50);
  EXPECT_EQ(first, second);
}

TEST(Swrr, NameAndInterface) {
  SwrrDispatcher d{Allocation({1.0})};
  EXPECT_EQ(d.name(), "swrr");
  EXPECT_EQ(d.machine_count(), 1u);
  EXPECT_FALSE(d.has(hs::dispatch::kDepartureFeedback));
}

}  // namespace
