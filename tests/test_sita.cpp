// Tests for the SITA-E size-interval dispatcher and the Bounded Pareto
// partial-expectation math behind its cutoffs.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/sim.h"
#include "dispatch/sita.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::dispatch::bounded_pareto_partial_mean;
using hs::dispatch::bounded_pareto_partial_mean_inverse;
using hs::dispatch::SitaDispatcher;
using hs::rng::BoundedPareto;

const BoundedPareto kPaperSizes(10.0, 21600.0, 1.0);

TEST(PartialMean, FullRangeEqualsMean) {
  EXPECT_NEAR(bounded_pareto_partial_mean(kPaperSizes, 10.0, 21600.0),
              kPaperSizes.mean(), 1e-9 * kPaperSizes.mean());
  const BoundedPareto other(1.0, 100.0, 1.7);
  EXPECT_NEAR(bounded_pareto_partial_mean(other, 1.0, 100.0), other.mean(),
              1e-9 * other.mean());
}

TEST(PartialMean, AdditiveOverSubintervals) {
  const double total =
      bounded_pareto_partial_mean(kPaperSizes, 10.0, 21600.0);
  const double left = bounded_pareto_partial_mean(kPaperSizes, 10.0, 500.0);
  const double right =
      bounded_pareto_partial_mean(kPaperSizes, 500.0, 21600.0);
  EXPECT_NEAR(left + right, total, 1e-9 * total);
}

TEST(PartialMean, MatchesEmpiricalConditionalSum) {
  hs::rng::Xoshiro256 gen(5);
  const double lo = 50.0, hi = 1000.0;
  double sum = 0.0;
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    const double x = kPaperSizes.sample(gen);
    if (x >= lo && x < hi) {
      sum += x;
    }
  }
  const double empirical = sum / n;
  const double analytic = bounded_pareto_partial_mean(kPaperSizes, lo, hi);
  EXPECT_NEAR(empirical, analytic, 0.02 * analytic);
}

TEST(PartialMeanInverse, RoundTrips) {
  for (double x : {10.5, 50.0, 500.0, 5000.0, 21599.0}) {
    const double target = bounded_pareto_partial_mean(kPaperSizes, 10.0, x);
    EXPECT_NEAR(bounded_pareto_partial_mean_inverse(kPaperSizes, target), x,
                1e-6 * x);
  }
  // α != 1 branch.
  const BoundedPareto other(2.0, 64.0, 1.5);
  for (double x : {2.5, 8.0, 32.0}) {
    const double target = bounded_pareto_partial_mean(other, 2.0, x);
    EXPECT_NEAR(bounded_pareto_partial_mean_inverse(other, target), x,
                1e-6 * x);
  }
}

TEST(PartialMeanInverse, Boundaries) {
  EXPECT_NEAR(bounded_pareto_partial_mean_inverse(kPaperSizes, 0.0), 10.0,
              1e-9);
  EXPECT_NEAR(
      bounded_pareto_partial_mean_inverse(kPaperSizes, kPaperSizes.mean()),
      21600.0, 1.0);
}

TEST(Sita, CutoffsAscendAndCoverSupport) {
  SitaDispatcher sita({1.0, 2.0, 4.0}, kPaperSizes);
  const auto& cutoffs = sita.cutoffs();
  ASSERT_EQ(cutoffs.size(), 4u);
  EXPECT_DOUBLE_EQ(cutoffs.front(), 10.0);
  EXPECT_DOUBLE_EQ(cutoffs.back(), 21600.0);
  for (size_t i = 0; i + 1 < cutoffs.size(); ++i) {
    EXPECT_LT(cutoffs[i], cutoffs[i + 1]);
  }
}

TEST(Sita, LoadShareMatchesSpeedShare) {
  const std::vector<double> speeds = {1.0, 2.0, 5.0};
  SitaDispatcher sita(speeds, kPaperSizes);
  const auto& cutoffs = sita.cutoffs();
  const double mean = kPaperSizes.mean();
  const double total_speed = 8.0;
  for (size_t i = 0; i < speeds.size(); ++i) {
    const double band_load =
        bounded_pareto_partial_mean(kPaperSizes, cutoffs[i], cutoffs[i + 1]);
    // Bands are ordered by ascending speed and speeds are already sorted.
    EXPECT_NEAR(band_load, speeds[i] / total_speed * mean,
                1e-6 * mean)
        << "band " << i;
  }
}

TEST(Sita, RoutesBySize) {
  SitaDispatcher sita({1.0, 1.0, 2.0}, kPaperSizes);
  hs::rng::Xoshiro256 gen(1);
  const auto& cutoffs = sita.cutoffs();
  // Jobs inside band i go to the i-th slowest machine (stable order).
  const double in_band0 = 0.5 * (cutoffs[0] + cutoffs[1]);
  const double in_band2 = 0.5 * (cutoffs[2] + cutoffs[3]);
  EXPECT_EQ(sita.pick_sized(gen, in_band0), 0u);
  EXPECT_EQ(sita.pick_sized(gen, in_band2), 2u);
  // Boundary and out-of-support sizes clamp to the edge bands.
  EXPECT_EQ(sita.pick_sized(gen, 1.0), 0u);
  EXPECT_EQ(sita.pick_sized(gen, 1e9), 2u);
}

TEST(Sita, FastestMachineGetsLargestJobs) {
  SitaDispatcher sita({4.0, 1.0}, kPaperSizes);  // machine 0 is fastest
  hs::rng::Xoshiro256 gen(1);
  EXPECT_EQ(sita.pick_sized(gen, 10.5), 1u);     // small job → slow machine
  EXPECT_EQ(sita.pick_sized(gen, 20000.0), 0u);  // huge job → fast machine
}

TEST(Sita, SingleMachineTakesEverything) {
  SitaDispatcher sita({3.0}, kPaperSizes);
  hs::rng::Xoshiro256 gen(1);
  EXPECT_EQ(sita.pick_sized(gen, 11.0), 0u);
  EXPECT_NEAR(sita.expected_job_fraction(0), 1.0, 1e-12);
}

TEST(Sita, ExpectedJobFractionsSumToOne) {
  SitaDispatcher sita({1.0, 3.0, 9.0, 2.0}, kPaperSizes);
  double sum = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    sum += sita.expected_job_fraction(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // With a heavy-tailed distribution most *jobs* are small, so the
  // slowest machine (index 0, smallest size band) receives the largest
  // share of jobs despite carrying the smallest share of load.
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(sita.expected_job_fraction(0),
              sita.expected_job_fraction(i))
        << "machine " << i;
  }
}

TEST(Sita, SizeBlindPickThrows) {
  SitaDispatcher sita({1.0, 2.0}, kPaperSizes);
  hs::rng::Xoshiro256 gen(1);
  EXPECT_THROW((void)sita.pick(gen), hs::util::CheckError);
  EXPECT_TRUE(sita.has(hs::dispatch::kSizeAware));
}

TEST(Sita, EndToEndEqualizesUtilization) {
  // Through the harness: SITA-E must drive all machines to roughly the
  // same utilization, like the weighted scheme but via size bands.
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 2.0, 4.0};
  config.rho = 0.6;
  config.sim_time = 400000.0;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.seed = 21;
  SitaDispatcher sita(config.speeds, kPaperSizes);
  const auto result = hs::cluster::run_simulation(config, sita);
  for (double u : result.machine_utilizations) {
    EXPECT_NEAR(u, 0.6, 0.1);
  }
  // Job fractions match the analytic band probabilities.
  for (size_t i = 0; i < config.speeds.size(); ++i) {
    EXPECT_NEAR(result.machine_fractions[i], sita.expected_job_fraction(i),
                0.02)
        << "machine " << i;
  }
}

}  // namespace
