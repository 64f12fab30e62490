// Tests for the Dynamic Least-Load dispatcher.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dispatch/least_load.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::dispatch::LeastLoadDispatcher;
using hs::dispatch::LeastLoadEngine;

hs::rng::Xoshiro256 gen(1);

TEST(LeastLoad, PrefersFastestWhenAllIdle) {
  LeastLoadDispatcher d({1.0, 2.0, 10.0});
  // Normalized loads (0+1)/s: 1, 0.5, 0.1 → machine 2.
  EXPECT_EQ(d.pick(gen), 2u);
}

TEST(LeastLoad, EstimateIncrementsOnPick) {
  LeastLoadDispatcher d({1.0, 1.0});
  EXPECT_EQ(d.pick(gen), 0u);  // tie → first
  EXPECT_EQ(d.estimated_queue(0), 1u);
  EXPECT_EQ(d.pick(gen), 1u);  // now machine 1 is emptier
  EXPECT_EQ(d.pick(gen), 0u);  // alternates while no departures
}

TEST(LeastLoad, NormalizedLoadDrivesChoice) {
  LeastLoadDispatcher d({1.0, 10.0});
  // The speed-10 machine absorbs many jobs before the slow one looks
  // better: (q+1)/10 < 1 until q = 9.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(d.pick(gen), 1u) << "job " << i;
  }
  // Now (9+1)/10 == (0+1)/1 → tie, first machine wins.
  EXPECT_EQ(d.pick(gen), 0u);
}

TEST(LeastLoad, DepartureReportFreesCapacity) {
  LeastLoadDispatcher d({1.0, 1.0});
  EXPECT_EQ(d.pick(gen), 0u);
  d.on_departure_report(0, 0.0, 1.0);
  EXPECT_EQ(d.estimated_queue(0), 0u);
  EXPECT_EQ(d.pick(gen), 0u);  // back to the tie-first choice
}

TEST(LeastLoad, StaleReportIgnored) {
  // A crash report zeroes a machine's estimate while departure reports
  // for jobs that completed just before the crash may still be in
  // flight; such stale reports are dropped rather than rejected.
  LeastLoadDispatcher d({1.0});
  EXPECT_NO_THROW((void)(d.on_departure_report(0, 0.0, 1.0)));
  EXPECT_EQ(d.estimated_queue(0), 0u);
}

TEST(LeastLoad, ResetClearsEstimates) {
  LeastLoadDispatcher d({1.0, 1.0});
  (void)d.pick(gen);
  (void)d.pick(gen);
  d.reset();
  EXPECT_EQ(d.estimated_queue(0), 0u);
  EXPECT_EQ(d.estimated_queue(1), 0u);
}

TEST(LeastLoad, UsesFeedback) {
  LeastLoadDispatcher d({1.0});
  EXPECT_TRUE(d.has(hs::dispatch::kDepartureFeedback));
  EXPECT_EQ(d.name(), "least-load");
  EXPECT_EQ(d.machine_count(), 1u);
}

TEST(LeastLoad, OutOfRangeReportThrows) {
  LeastLoadDispatcher d({1.0});
  EXPECT_THROW((void)(d.on_departure_report(5, 0.0, 1.0)),
               hs::util::CheckError);
  EXPECT_THROW((void)(d.estimated_queue(5)), hs::util::CheckError);
}

TEST(LeastLoad, InvalidConstructionThrows) {
  EXPECT_THROW((void)(LeastLoadDispatcher({})), hs::util::CheckError);
  EXPECT_THROW((void)(LeastLoadDispatcher({1.0, 0.0})), hs::util::CheckError);
}

TEST(LeastLoad, SteadyStateSharesFavorFastMachines) {
  // With prompt departure reports at service-rate pace, the long-run
  // job shares skew towards fast machines more than proportionally —
  // the observation behind Table 1.
  LeastLoadDispatcher d({1.0, 9.0});
  std::vector<uint64_t> counts(2, 0);
  // Crude closed loop: after each pick, report a departure from the
  // machine most likely to have finished (probability ∝ speed·queue).
  hs::rng::Xoshiro256 local_gen(5);
  for (int i = 0; i < 20000; ++i) {
    counts[d.pick(local_gen)]++;
    // Keep total in-flight around 4 jobs.
    if (d.estimated_queue(0) + d.estimated_queue(1) > 4) {
      const double w0 =
          static_cast<double>(d.estimated_queue(0)) * 1.0;
      const double w1 =
          static_cast<double>(d.estimated_queue(1)) * 9.0;
      const size_t machine =
          local_gen.next_double() * (w0 + w1) < w0 ? 0 : 1;
      if (d.estimated_queue(machine) > 0) {
        d.on_departure_report(machine, 0.0, 1.0);
      }
    }
  }
  const double share_fast =
      static_cast<double>(counts[1]) / static_cast<double>(counts[0] + counts[1]);
  // Proportional share would be 0.9; least-load must exceed it.
  EXPECT_GT(share_fast, 0.9);
}

// ---------------------------------------------------------------------
// Tournament-tree vs linear-scan differential testing. The tree engine
// must reproduce the reference scan bit-identically — same winner on
// every pick, same hedge choice under exclusion, same behavior through
// availability churn — because the golden determinism suite pins the
// scan's historical sequences.

// Small deterministic fixture: both engines exist side by side and every
// mutation is applied to both.
class EngineHarness {
 public:
  explicit EngineHarness(std::vector<double> speeds)
      : tree_(speeds, LeastLoadEngine::kTree),
        scan_(speeds, LeastLoadEngine::kScan),
        machines_(speeds.size()) {}

  void pick(hs::rng::Xoshiro256& g) {
    ASSERT_EQ(tree_.pick(g), scan_.pick(g));
  }
  void pick_hedge(hs::rng::Xoshiro256& g, size_t exclude) {
    const size_t from_tree = tree_.pick_hedge(g, 1.0, exclude);
    const size_t from_scan = scan_.pick_hedge(g, 1.0, exclude);
    ASSERT_EQ(from_tree, from_scan) << "exclude " << exclude;
  }
  void departure(size_t machine) {
    tree_.on_departure_report(machine, 0.0, 1.0);
    scan_.on_departure_report(machine, 0.0, 1.0);
  }
  void load_report(size_t machine, uint64_t queue) {
    tree_.on_load_report(machine, queue);
    scan_.on_load_report(machine, queue);
  }
  void mask(const std::vector<bool>& available) {
    ASSERT_TRUE(tree_.set_available_mask(available));
    ASSERT_TRUE(scan_.set_available_mask(available));
  }
  void check_estimates() {
    for (size_t i = 0; i < machines_; ++i) {
      ASSERT_EQ(tree_.estimated_queue(i), scan_.estimated_queue(i)) << i;
    }
  }
  [[nodiscard]] size_t machines() const { return machines_; }

 private:
  LeastLoadDispatcher tree_;
  LeastLoadDispatcher scan_;
  size_t machines_;
};

TEST(LeastLoadDifferential, EnginesAgreeOnDefaults) {
  LeastLoadDispatcher d({1.0, 2.0});
  EXPECT_EQ(d.engine(), LeastLoadEngine::kTree);
  LeastLoadDispatcher ref({1.0, 2.0}, LeastLoadEngine::kScan);
  EXPECT_EQ(ref.engine(), LeastLoadEngine::kScan);
}

TEST(LeastLoadDifferential, RandomizedChurnBitIdentical) {
  // Speeds with repeats force ties (lowest-index rule), and a wide range
  // forces the tree comparator through very unequal keys.
  std::vector<double> speeds;
  hs::rng::Xoshiro256 speed_gen(20260808);
  for (int i = 0; i < 67; ++i) {  // odd size: tree pads to 128 leaves
    const double choices[] = {0.5, 1.0, 1.0, 2.0, 4.0, 4.0, 16.0};
    speeds.push_back(choices[speed_gen.next_u64() % 7]);
  }
  EngineHarness harness(speeds);
  std::vector<bool> available(speeds.size(), true);
  hs::rng::Xoshiro256 op_gen(99);
  for (int step = 0; step < 30000; ++step) {
    const uint64_t op = op_gen.next_u64() % 100;
    const size_t machine = op_gen.next_u64() % harness.machines();
    if (op < 45) {
      harness.pick(op_gen);
    } else if (op < 60) {
      harness.pick_hedge(op_gen, machine);
    } else if (op < 80) {
      harness.departure(machine);
    } else if (op < 90) {
      harness.load_report(machine, op_gen.next_u64() % 12);
    } else {
      // Mask churn: flip one machine, occasionally blackout everything.
      if (op == 99) {
        const bool blackout = op_gen.next_u64() % 2 == 0;
        for (size_t i = 0; i < available.size(); ++i) {
          available[i] = !blackout;
        }
      } else {
        available[machine] = !available[machine];
      }
      harness.mask(available);
    }
    if (step % 1000 == 0) {
      harness.check_estimates();
    }
  }
  harness.check_estimates();
}

TEST(LeastLoadDifferential, HedgeExclusionEdgeCases) {
  // One available machine: hedging against it returns it unchanged (the
  // caller's skip signal) in both engines, with no estimate movement.
  for (const LeastLoadEngine engine :
       {LeastLoadEngine::kTree, LeastLoadEngine::kScan}) {
    LeastLoadDispatcher d({1.0, 2.0, 4.0}, engine);
    ASSERT_TRUE(d.set_available_mask({false, true, false}));
    hs::rng::Xoshiro256 g(3);
    EXPECT_EQ(d.pick_hedge(g, 1.0, 1), 1u);
    EXPECT_EQ(d.estimated_queue(1), 0u);
    // With a second machine up, the hedge goes there instead.
    ASSERT_TRUE(d.set_available_mask({true, true, false}));
    EXPECT_EQ(d.pick_hedge(g, 1.0, 1), 0u);
    EXPECT_EQ(d.estimated_queue(0), 1u);
  }
}

TEST(LeastLoadDifferential, AllMaskedTreatsEveryMachineAsCandidate) {
  for (const LeastLoadEngine engine :
       {LeastLoadEngine::kTree, LeastLoadEngine::kScan}) {
    LeastLoadDispatcher d({1.0, 8.0}, engine);
    ASSERT_TRUE(d.set_available_mask({false, false}));
    hs::rng::Xoshiro256 g(4);
    // Jobs must go somewhere: the fastest machine wins as if all were up.
    EXPECT_EQ(d.pick(g), 1u);
  }
}

}  // namespace
