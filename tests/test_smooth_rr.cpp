// Differential tests for SmoothRoundRobinDispatcher (Algorithm 2): its
// O(log k) engine against the dense reference scan in
// smooth_rr_reference.h, compared pick by pick and on every assign and
// `next` value bit for bit, plus the checkpoint restore contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/optimized.h"
#include "alloc/scheme.h"
#include "cluster/config.h"
#include "dispatch/smooth_rr.h"
#include "rng/rng.h"
#include "smooth_rr_reference.h"

namespace {

using hs::alloc::Allocation;
using hs::dispatch::SmoothRoundRobinDispatcher;
using hs::testing::ReferenceSmoothRr;

/// Runs the engine and the reference side by side.
class Pair {
 public:
  explicit Pair(const Allocation& allocation)
      : engine_(allocation), reference_(allocation) {}

  /// One pick on each side; the machines must agree, and with
  /// `compare_state` so must every assign/next/started value.
  void pick(bool compare_state, uint64_t step) {
    const size_t got = engine_.pick(gen_);
    const size_t want = reference_.pick();
    ASSERT_EQ(got, want) << "pick " << step;
    if (compare_state) {
      expect_same_state(step);
    }
  }

  void expect_same_state(uint64_t step) {
    engine_state_.clear();
    reference_state_.clear();
    engine_.save_state(engine_state_);
    reference_.save_state(reference_state_);
    ASSERT_EQ(engine_state_.size(), reference_state_.size());
    ASSERT_EQ(std::memcmp(engine_state_.data(), reference_state_.data(),
                          engine_state_.size() * sizeof(double)),
              0)
        << "state diverged after pick " << step;
  }

  void rebuild_fractions(const std::vector<double>& fractions) {
    engine_.rebuild_fractions(fractions);
    reference_.rebuild_fractions(fractions);
  }

  /// Checkpoint the engine mid-stream and continue on a fresh engine
  /// (built on other fractions) restored from it.
  void restore_into_fresh(const Allocation& other) {
    std::vector<double> state;
    const size_t saved = engine_.save_state(state);
    SmoothRoundRobinDispatcher fresh(other);
    ASSERT_EQ(fresh.restore_state(state), saved);
    engine_ = std::move(fresh);
  }

  void restore_reference(std::span<const double> state) {
    reference_.restore_state(state);
  }

  [[nodiscard]] SmoothRoundRobinDispatcher& engine() { return engine_; }
  [[nodiscard]] const ReferenceSmoothRr& reference() const {
    return reference_;
  }

 private:
  SmoothRoundRobinDispatcher engine_;
  ReferenceSmoothRr reference_;
  hs::rng::Xoshiro256 gen_{1};
  std::vector<double> engine_state_;
  std::vector<double> reference_state_;
};

size_t draw_index(hs::rng::Xoshiro256& gen, size_t n) {
  return static_cast<size_t>(gen.next_u64() % n);
}

std::vector<double> normalized(std::vector<double> weights) {
  double sum = 0.0;
  for (const double w : weights) {
    sum += w;
  }
  for (double& w : weights) {
    w /= sum;
  }
  return Allocation(std::move(weights)).fractions();
}

/// Fractions of four shapes: the optimized allocation on random speeds,
/// the weighted allocation on a few repeated speeds (exact ties), small
/// integer weights (dyadic, many exact ties at the guard value), and
/// random weights with about a quarter of the machines excluded.
std::vector<double> random_fractions(hs::rng::Xoshiro256& gen, size_t n,
                                     unsigned shape) {
  std::vector<double> w(n);
  switch (shape % 4) {
    case 0: {
      for (double& s : w) {
        s = gen.uniform(0.5, 20.0);
      }
      return hs::alloc::OptimizedAllocation()
          .compute(w, gen.uniform(0.1, 0.95))
          .fractions();
    }
    case 1: {
      constexpr double kSpeeds[] = {1.0, 1.5, 2.0, 5.0, 10.0, 12.0};
      for (double& s : w) {
        s = kSpeeds[draw_index(gen, 6)];
      }
      return hs::alloc::WeightedAllocation().compute(w, 0.5).fractions();
    }
    case 2: {
      constexpr double kWeights[] = {1.0, 1.0, 2.0, 4.0, 8.0};
      for (double& x : w) {
        x = kWeights[draw_index(gen, 5)];
      }
      break;
    }
    default: {
      for (double& x : w) {
        x = gen.next_double() < 0.25 ? 0.0 : gen.uniform(0.01, 1.0);
      }
      w[draw_index(gen, n)] = gen.uniform(0.01, 1.0);
      break;
    }
  }
  return normalized(std::move(w));
}

/// `fractions` with random machines excluded (at least one kept) — the
/// survivor set a mask flip rebuilds onto.
std::vector<double> masked(hs::rng::Xoshiro256& gen,
                           std::vector<double> fractions) {
  const size_t keep = draw_index(gen, fractions.size());
  if (fractions[keep] == 0.0) {
    fractions[keep] = 1.0;
  }
  for (size_t i = 0; i < fractions.size(); ++i) {
    if (i != keep && gen.next_double() < 0.3) {
      fractions[i] = 0.0;
    }
  }
  return normalized(std::move(fractions));
}

TEST(SmoothRrDifferential, RandomSmallClustersWithChurnAndRestore) {
  // 500 clusters of 1..128 machines (both sides of the 64 active
  // machines from which the lazy set is used), 20k picks each (10^7 in
  // total). Each run is cut by a few events: rebuild_fractions onto a
  // masked or fresh allocation, and a save_state/restore_state round
  // trip into a fresh engine. Every pick is compared; the full state
  // after every pick of the first 1000 and of the 100 after each event,
  // and after every 16th pick otherwise (a `next` that diverged keeps
  // its low bits, so it is still caught).
  hs::rng::Xoshiro256 gen(20240601);
  uint64_t total_picks = 0;
  for (unsigned c = 0; c < 500; ++c) {
    const size_t n = 1 + draw_index(gen, 128);
    const auto fractions = random_fractions(gen, n, c);
    Pair pair{Allocation(fractions)};
    uint64_t dense_until = 1000;
    for (uint64_t step = 0; step < 20000; ++step) {
      const uint64_t roll = gen.next_u64() % 4000;
      if (roll == 0) {
        pair.rebuild_fractions(masked(gen, fractions));
      } else if (roll == 1) {
        pair.rebuild_fractions(random_fractions(gen, n, c + 1));
      } else if (roll == 2) {
        pair.restore_into_fresh(Allocation(random_fractions(gen, n, c + 2)));
      }
      if (roll <= 2) {
        dense_until = std::max(dense_until, step + 100);
      }
      pair.pick(step < dense_until || step % 16 == 0, step);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "cluster " << c << " (n=" << n << ")";
      }
      ++total_picks;
    }
  }
  EXPECT_GE(total_picks, 10000000u);
}

TEST(SmoothRrDifferential, PaperBaseOrrAndWrrHitInexactSteps) {
  // Table 3's 15 machines under the ORR and WRR allocations. At n = 15
  // the selected `next` dips well below zero, where `-= 1.0` can round:
  // the runs must reach such steps, or they would not test the engine's
  // step-by-step tail.
  const auto speeds = hs::cluster::ClusterConfig::paper_base().speeds();
  uint64_t inexact = 0;
  for (const double rho : {0.3, 0.5, 0.7, 0.9}) {
    for (const bool optimized : {true, false}) {
      const Allocation allocation =
          optimized ? hs::alloc::OptimizedAllocation().compute(speeds, rho)
                    : hs::alloc::WeightedAllocation().compute(speeds, rho);
      Pair pair{allocation};
      for (uint64_t step = 0; step < 250000; ++step) {
        pair.pick(true, step);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "rho " << rho << (optimized ? " ORR" : " WRR");
      }
      inexact += pair.reference().inexact_steps();
    }
  }
  EXPECT_GT(inexact, 0u);
}

TEST(SmoothRrDifferential, RoundedCountdownTail) {
  // A started machine held below zero while lower ones are served first
  // is counted down through [-1, -2), [-2, -4), ... where each `-= 1.0`
  // rounds a value whose low bits the new range cannot hold. Rounding
  // step by step differs from one subtraction of the total in the last
  // bit for some values, so this needs the stepped tail. 6 and 70 other
  // machines: below and above the cluster size where the lazy set is
  // used.
  hs::rng::Xoshiro256 gen(3);
  uint64_t inexact = 0;
  for (const size_t others : {6, 70}) {
    const size_t n = others + 1;
    std::vector<double> fractions(n, 0.6 / static_cast<double>(others));
    fractions[0] = 0.4;
    fractions = normalized(fractions);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> state = fractions;
      state.resize(4 * n);
      for (size_t i = 0; i < n; ++i) {
        state[n + i] = 1.0;                                // assign
        state[2 * n + i] = -10.0 - gen.uniform(0.0, 6.0);  // next
        state[3 * n + i] = 1.0;                            // started
      }
      state[2 * n] = -gen.uniform(0.25, 1.0);
      Pair pair{Allocation(fractions)};
      ASSERT_EQ(pair.engine().restore_state(state), 4 * n);
      pair.restore_reference(state);
      for (uint64_t step = 0; step < 2 * n + 32; ++step) {
        pair.pick(true, step);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << others << " others, trial " << trial;
      }
      inexact += pair.reference().inexact_steps();
    }
  }
  EXPECT_GT(inexact, 0u);
}

TEST(SmoothRrDifferential, TieChainWiderThanTheWindow) {
  // `next` values spaced 0.5ε–1ε apart chain the ε-hysteresis scan past
  // the window the engine gathers tied machines from: a scan over the
  // window alone selects machine 5, the full scan machine 4. With no
  // gap isolating the window the engine must fall back to the full scan.
  // Padded with 0 or 60 far-off machines (below and above the cluster
  // size where the lazy set is used); scaling every fraction of the
  // chain by one factor keeps its (assign+1)/αᵢ order.
  const std::vector<double> chain_fractions = {0.1, 0.3, 0.3, 0.1, 0.1, 0.1};
  const std::vector<double> offsets = {6.0, 5.0, 4.2, 3.2, 2.5, 1.5};
  const std::vector<double> assigns = {2, 3, 5, 2, 3, 3};
  for (const size_t padding : {0, 60}) {
    for (const double base : {0.3, 2.3}) {  // stepped, lazy
      std::vector<double> fractions = chain_fractions;
      std::vector<double> assign = assigns;
      std::vector<double> next;
      for (const double offset : offsets) {
        next.push_back(base + offset * 1e-9);
      }
      for (size_t j = 0; j < padding; ++j) {
        fractions.push_back(1.0 / 60.0);
        assign.push_back(1.0);
        next.push_back(50.0 + static_cast<double>(j));
      }
      fractions = normalized(fractions);
      const size_t n = fractions.size();
      std::vector<double> state = fractions;
      state.insert(state.end(), assign.begin(), assign.end());
      state.insert(state.end(), next.begin(), next.end());
      state.insert(state.end(), n, 1.0);  // started
      Pair pair{Allocation(fractions)};
      ASSERT_EQ(pair.engine().restore_state(state), 4 * n);
      pair.restore_reference(state);
      for (uint64_t step = 0; step < 100; ++step) {
        pair.pick(true, step);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "padding " << padding << ", base " << base;
      }
      EXPECT_GE(pair.engine().full_tie_scans(), 1u);
    }
  }
}

TEST(SmoothRrDifferential, TenThousandMachines) {
  // §5.2's two-class cluster under ORR, and random speeds: the whole
  // start-up phase, where most picks are ties among never-started
  // machines at the guard value, then steady state.
  hs::rng::Xoshiro256 gen(7);
  std::vector<double> random_speeds(10000);
  for (double& s : random_speeds) {
    s = gen.uniform(0.5, 20.0);
  }
  const std::vector<std::vector<double>> clusters = {
      hs::cluster::ClusterConfig::paper_size(10000).speeds(), random_speeds};
  for (const auto& speeds : clusters) {
    Pair pair{hs::alloc::OptimizedAllocation().compute(speeds, 0.7)};
    for (uint64_t step = 0; step < 30000; ++step) {
      pair.pick(step % 1024 == 0, step);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    pair.expect_same_state(30000);
    EXPECT_EQ(pair.engine().full_tie_scans(), 0u);
  }
}

TEST(SmoothRrDifferential, PaperWorkedExample) {
  // §3.2: {1/8, 1/8, 1/4, 1/2} → c4 c3 c4 c2 c4 c3 c4 c1, up to the
  // relabeling of the two 1/8 machines (the scan takes c1 first).
  Pair pair{Allocation({1.0 / 8, 1.0 / 8, 1.0 / 4, 1.0 / 2})};
  std::vector<size_t> picks;
  for (uint64_t step = 0; step < 4096; ++step) {
    pair.pick(true, step);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  hs::rng::Xoshiro256 gen(1);
  pair.engine().reset();
  for (int k = 0; k < 8; ++k) {
    picks.push_back(pair.engine().pick(gen));
  }
  EXPECT_EQ(picks, (std::vector<size_t>{3, 2, 3, 0, 3, 2, 3, 1}));
}

// ------------------------------------------------------ restore contract

/// A dispatcher mid-cycle and its checkpoint (4n values).
struct Checkpointed {
  static constexpr size_t kN = 4;
  SmoothRoundRobinDispatcher dispatcher{
      Allocation({0.1, 0.2, 0.3, 0.4})};
  std::vector<double> state;

  Checkpointed() {
    hs::rng::Xoshiro256 gen(1);
    for (int k = 0; k < 3; ++k) {
      (void)dispatcher.pick(gen);
    }
    dispatcher.save_state(state);
  }
  double& fraction(size_t i) { return state[i]; }
  double& assign(size_t i) { return state[kN + i]; }
  double& next(size_t i) { return state[2 * kN + i]; }
  double& started(size_t i) { return state[3 * kN + i]; }

  /// The restore must be declined and leave the dispatcher as it was.
  void expect_rejected() {
    std::vector<double> before;
    dispatcher.save_state(before);
    EXPECT_EQ(dispatcher.restore_state(state), 0u);
    std::vector<double> after;
    dispatcher.save_state(after);
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(double)),
              0);
  }
};

TEST(SmoothRrRestore, RoundTripContinuesTheSchedule) {
  Checkpointed c;
  SmoothRoundRobinDispatcher restored(Allocation({0.25, 0.25, 0.25, 0.25}));
  ASSERT_EQ(restored.restore_state(c.state), 4 * Checkpointed::kN);
  hs::rng::Xoshiro256 gen(1);
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(restored.pick(gen), c.dispatcher.pick(gen));
  }
}

TEST(SmoothRrRestore, RejectsNanFraction) {
  Checkpointed c;
  c.fraction(0) = std::numeric_limits<double>::quiet_NaN();
  c.expect_rejected();
}

TEST(SmoothRrRestore, RejectsFractionOutsideUnitInterval) {
  Checkpointed c;
  c.fraction(0) = -0.1;
  c.fraction(3) = 0.6;  // still sums to 1
  c.expect_rejected();
}

TEST(SmoothRrRestore, RejectsFractionsNotSummingToOne) {
  Checkpointed c;
  c.fraction(3) = 0.5;
  c.expect_rejected();
}

TEST(SmoothRrRestore, RejectsNoActiveMachine) {
  Checkpointed c;
  for (size_t i = 0; i < Checkpointed::kN; ++i) {
    c.fraction(i) = 0.0;
  }
  c.expect_rejected();
}

TEST(SmoothRrRestore, RejectsStartedWithoutAssignments) {
  Checkpointed c;
  ASSERT_EQ(c.assign(0), 0.0);
  c.started(0) = 1.0;
  c.expect_rejected();
}

TEST(SmoothRrRestore, RejectsAssignmentsWithoutStarted) {
  Checkpointed c;
  ASSERT_GT(c.assign(3), 0.0);
  c.started(3) = 0.0;
  c.expect_rejected();
}

TEST(SmoothRrRestore, RejectsUnstartedMachineOffTheGuardValue) {
  Checkpointed c;
  ASSERT_EQ(c.assign(0), 0.0);
  c.next(0) = 0.5;
  c.expect_rejected();
}

}  // namespace
