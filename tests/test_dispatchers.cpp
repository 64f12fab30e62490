// Tests for the static dispatching strategies, including the paper's
// Algorithm 2 worked example.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "alloc/allocation.h"
#include "dispatch/cyclic.h"
#include "dispatch/random_dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::alloc::Allocation;
using hs::dispatch::CyclicDispatcher;
using hs::dispatch::RandomDispatcher;
using hs::dispatch::SmoothRoundRobinDispatcher;

std::vector<size_t> take(hs::dispatch::Dispatcher& d, size_t count,
                         uint64_t seed = 1) {
  hs::rng::Xoshiro256 gen(seed);
  std::vector<size_t> sequence;
  sequence.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    sequence.push_back(d.pick(gen));
  }
  return sequence;
}

// ------------------------------------------------------------ SmoothRR

TEST(SmoothRr, PaperWorkedExample) {
  // §3.2: fractions {1/8, 1/8, 1/4, 1/2} must yield the evenly spread
  // cycle c4 c3 c4 c* c4 c3 c4 c* where the two 1/8 machines alternate
  // between the c* slots. The paper prints c2 first and c1 second; the
  // two are symmetric (equal fractions) and our ascending scan picks c1
  // first — same schedule up to relabeling of the tied pair.
  SmoothRoundRobinDispatcher d(
      Allocation({1.0 / 8, 1.0 / 8, 1.0 / 4, 1.0 / 2}));
  const std::vector<size_t> expected = {3, 2, 3, 0, 3, 2, 3, 1,
                                        3, 2, 3, 0, 3, 2, 3, 1,
                                        3, 2, 3, 0, 3, 2, 3, 1};
  EXPECT_EQ(take(d, 24), expected);
}

TEST(SmoothRr, EqualFractionsDegenerateToRoundRobin) {
  SmoothRoundRobinDispatcher d(Allocation({0.25, 0.25, 0.25, 0.25}));
  const auto seq = take(d, 12);
  // Each machine must appear exactly once per cycle of 4.
  for (size_t cycle = 0; cycle < 3; ++cycle) {
    std::vector<bool> seen(4, false);
    for (size_t k = 0; k < 4; ++k) {
      seen[seq[cycle * 4 + k]] = true;
    }
    for (bool s : seen) {
      EXPECT_TRUE(s);
    }
  }
}

TEST(SmoothRr, ZeroFractionMachineNeverSelected) {
  SmoothRoundRobinDispatcher d(Allocation({0.5, 0.0, 0.5}));
  for (size_t machine : take(d, 1000)) {
    EXPECT_NE(machine, 1u);
  }
}

TEST(SmoothRr, CountsProportionalInShortWindows) {
  // The defining property: in any window, per-machine counts track the
  // fractions to within a small additive bound.
  const std::vector<double> fractions = {0.35, 0.22, 0.15, 0.12,
                                         0.04, 0.04, 0.04, 0.04};
  SmoothRoundRobinDispatcher d{Allocation(fractions)};
  std::vector<uint64_t> counts(fractions.size(), 0);
  hs::rng::Xoshiro256 gen(1);
  const size_t total = 5000;
  for (size_t k = 1; k <= total; ++k) {
    counts[d.pick(gen)]++;
    // Check the invariant at several window sizes.
    if (k == 50 || k == 500 || k == total) {
      for (size_t i = 0; i < fractions.size(); ++i) {
        const double expected = fractions[i] * static_cast<double>(k);
        EXPECT_NEAR(static_cast<double>(counts[i]), expected, 2.0)
            << "machine " << i << " after " << k << " jobs";
      }
    }
  }
}

TEST(SmoothRr, AssignCountsExposed) {
  SmoothRoundRobinDispatcher d(Allocation({0.5, 0.5}));
  take(d, 10);
  EXPECT_EQ(d.assigned(0) + d.assigned(1), 10u);
  EXPECT_EQ(d.assigned(0), 5u);
}

TEST(SmoothRr, ResetReproducesSequence) {
  SmoothRoundRobinDispatcher d(Allocation({0.3, 0.7}));
  const auto first = take(d, 100);
  d.reset();
  const auto second = take(d, 100);
  EXPECT_EQ(first, second);
}

TEST(SmoothRr, DeterministicAcrossGeneratorSeeds) {
  SmoothRoundRobinDispatcher d1(Allocation({0.6, 0.4}));
  SmoothRoundRobinDispatcher d2(Allocation({0.6, 0.4}));
  EXPECT_EQ(take(d1, 50, 111), take(d2, 50, 999));
}

TEST(SmoothRr, SmallFractionFirstJobsSpreadOut) {
  // §3.2: machines with identical small fractions must receive their
  // first jobs at staggered positions, not back to back.
  const std::vector<double> fractions = {0.35, 0.22, 0.15, 0.12,
                                         0.04, 0.04, 0.04, 0.04};
  SmoothRoundRobinDispatcher d{Allocation(fractions)};
  const auto seq = take(d, 100);
  std::map<size_t, size_t> first_position;
  for (size_t k = 0; k < seq.size(); ++k) {
    first_position.try_emplace(seq[k], k);
  }
  // Machines 4..7 share fraction 0.04 (period 25): their first jobs must
  // be pairwise separated by at least a few arrivals.
  for (size_t a = 4; a <= 7; ++a) {
    for (size_t b = a + 1; b <= 7; ++b) {
      ASSERT_TRUE(first_position.contains(a));
      ASSERT_TRUE(first_position.contains(b));
      const auto pa = static_cast<long>(first_position[a]);
      const auto pb = static_cast<long>(first_position[b]);
      EXPECT_GE(std::abs(pa - pb), 3) << "machines " << a << " and " << b;
    }
  }
}

TEST(SmoothRr, SingleMachineAlwaysSelected) {
  SmoothRoundRobinDispatcher d(Allocation({1.0}));
  for (size_t machine : take(d, 10)) {
    EXPECT_EQ(machine, 0u);
  }
}

TEST(SmoothRr, AllZeroButOne) {
  SmoothRoundRobinDispatcher d(Allocation({0.0, 1.0, 0.0}));
  for (size_t machine : take(d, 10)) {
    EXPECT_EQ(machine, 1u);
  }
}

TEST(SmoothRr, IrrationalFractionsStayProportional) {
  // Fractions that are not dyadic still must track proportions.
  const std::vector<double> fractions = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  SmoothRoundRobinDispatcher d{Allocation(fractions)};
  std::vector<uint64_t> counts(3, 0);
  hs::rng::Xoshiro256 gen(1);
  for (size_t k = 0; k < 3000; ++k) {
    counts[d.pick(gen)]++;
  }
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 1000.0, 2.0);
  }
}

// ------------------------------------------------------------- Random

TEST(RandomDispatcher, FrequenciesMatchFractions) {
  const std::vector<double> fractions = {0.1, 0.2, 0.3, 0.4};
  RandomDispatcher d{Allocation(fractions)};
  hs::rng::Xoshiro256 gen(7);
  std::vector<uint64_t> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    counts[d.pick(gen)]++;
  }
  for (size_t i = 0; i < fractions.size(); ++i) {
    const double expected = fractions[i] * n;
    EXPECT_NEAR(static_cast<double>(counts[i]), expected, 0.03 * expected);
  }
}

TEST(RandomDispatcher, ZeroFractionNeverSelected) {
  RandomDispatcher d(Allocation({0.5, 0.0, 0.5}));
  hs::rng::Xoshiro256 gen(3);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_NE(d.pick(gen), 1u);
  }
}

TEST(RandomDispatcher, SameSeedSameSequence) {
  RandomDispatcher d1(Allocation({0.3, 0.7}));
  RandomDispatcher d2(Allocation({0.3, 0.7}));
  hs::rng::Xoshiro256 g1(5), g2(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d1.pick(g1), d2.pick(g2));
  }
}

TEST(RandomDispatcher, HigherVarianceThanSmoothRr) {
  // The motivation for Algorithm 2: over fixed windows, random
  // dispatching deviates from the target fractions far more.
  const std::vector<double> fractions = {0.5, 0.5};
  RandomDispatcher random_d{Allocation(fractions)};
  SmoothRoundRobinDispatcher rr_d{Allocation(fractions)};
  hs::rng::Xoshiro256 gen(11);

  auto window_deviation = [&](hs::dispatch::Dispatcher& d) {
    double total_dev = 0.0;
    const int windows = 200;
    const int window_size = 50;
    for (int w = 0; w < windows; ++w) {
      int count0 = 0;
      for (int k = 0; k < window_size; ++k) {
        if (d.pick(gen) == 0) {
          ++count0;
        }
      }
      const double actual = static_cast<double>(count0) / window_size;
      total_dev += (actual - 0.5) * (actual - 0.5) * 2.0;
    }
    return total_dev / windows;
  };

  const double dev_random = window_deviation(random_d);
  const double dev_rr = window_deviation(rr_d);
  EXPECT_LT(dev_rr, 0.1 * dev_random);
}

// ------------------------------------------------------------- Cyclic

TEST(CyclicDispatcher, CyclesThroughActiveMachines) {
  CyclicDispatcher d(Allocation({0.25, 0.25, 0.25, 0.25}));
  const auto seq = take(d, 8);
  EXPECT_EQ(seq, (std::vector<size_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(CyclicDispatcher, SkipsZeroFractionMachines) {
  CyclicDispatcher d(Allocation({0.5, 0.0, 0.5}));
  const auto seq = take(d, 4);
  EXPECT_EQ(seq, (std::vector<size_t>{0, 2, 0, 2}));
}

TEST(CyclicDispatcher, ResetRestartsCycle) {
  CyclicDispatcher d(Allocation({0.5, 0.5}));
  take(d, 3);
  d.reset();
  EXPECT_EQ(take(d, 2), (std::vector<size_t>{0, 1}));
}

TEST(DispatcherInterface, NamesAndFeedbackFlags) {
  SmoothRoundRobinDispatcher rr(Allocation({1.0}));
  RandomDispatcher random_d(Allocation({1.0}));
  CyclicDispatcher cyclic(Allocation({1.0}));
  EXPECT_EQ(rr.name(), "round-robin");
  EXPECT_EQ(random_d.name(), "random");
  EXPECT_EQ(cyclic.name(), "cyclic");
  EXPECT_FALSE(rr.has(hs::dispatch::kDepartureFeedback));
  EXPECT_FALSE(random_d.has(hs::dispatch::kDepartureFeedback));
  EXPECT_FALSE(cyclic.has(hs::dispatch::kDepartureFeedback));
}

}  // namespace
