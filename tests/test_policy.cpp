// Tests for the policy factory (Table 2 combinations).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "alloc/optimized.h"
#include "alloc/scheme.h"
#include "core/policy.h"
#include "util/check.h"

namespace {

using namespace hs::core;

const std::vector<double> kSpeeds = {1.0, 1.5, 2.0, 5.0, 10.0, 12.0};

TEST(Policy, NamesMatchPaper) {
  EXPECT_EQ(policy_name(PolicyKind::kWRAN), "WRAN");
  EXPECT_EQ(policy_name(PolicyKind::kORAN), "ORAN");
  EXPECT_EQ(policy_name(PolicyKind::kWRR), "WRR");
  EXPECT_EQ(policy_name(PolicyKind::kORR), "ORR");
  EXPECT_EQ(policy_name(PolicyKind::kLeastLoad), "LeastLoad");
}

TEST(Policy, StaticAndDynamicClassification) {
  for (PolicyKind kind : static_policies()) {
    EXPECT_FALSE(is_dynamic(kind));
  }
  EXPECT_TRUE(is_dynamic(PolicyKind::kLeastLoad));
  EXPECT_EQ(static_policies().size(), 4u);
  EXPECT_EQ(all_policies().size(), 5u);
}

TEST(Policy, OptimizedAllocationFlag) {
  EXPECT_FALSE(uses_optimized_allocation(PolicyKind::kWRAN));
  EXPECT_FALSE(uses_optimized_allocation(PolicyKind::kWRR));
  EXPECT_TRUE(uses_optimized_allocation(PolicyKind::kORAN));
  EXPECT_TRUE(uses_optimized_allocation(PolicyKind::kORR));
}

TEST(Policy, AllocationsMatchSchemes) {
  const double rho = 0.7;
  const auto weighted = hs::alloc::WeightedAllocation().compute(kSpeeds, rho);
  const auto optimized =
      hs::alloc::OptimizedAllocation().compute(kSpeeds, rho);
  const auto wrr = policy_allocation(PolicyKind::kWRR, kSpeeds, rho);
  const auto orr = policy_allocation(PolicyKind::kORR, kSpeeds, rho);
  for (size_t i = 0; i < kSpeeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(wrr[i], weighted[i]);
    EXPECT_DOUBLE_EQ(orr[i], optimized[i]);
  }
}

TEST(Policy, AllocationForDynamicPolicyThrows) {
  EXPECT_THROW(policy_allocation(PolicyKind::kLeastLoad, kSpeeds, 0.7),
               hs::util::CheckError);
}

TEST(Policy, DispatcherKindsMatch) {
  auto wran = make_policy_dispatcher(PolicyKind::kWRAN, kSpeeds, 0.7);
  auto oran = make_policy_dispatcher(PolicyKind::kORAN, kSpeeds, 0.7);
  auto wrr = make_policy_dispatcher(PolicyKind::kWRR, kSpeeds, 0.7);
  auto orr = make_policy_dispatcher(PolicyKind::kORR, kSpeeds, 0.7);
  auto ll = make_policy_dispatcher(PolicyKind::kLeastLoad, kSpeeds, 0.7);
  EXPECT_EQ(wran->name(), "random");
  EXPECT_EQ(oran->name(), "random");
  EXPECT_EQ(wrr->name(), "round-robin");
  EXPECT_EQ(orr->name(), "round-robin");
  EXPECT_EQ(ll->name(), "least-load");
  EXPECT_TRUE(ll->has(hs::dispatch::kDepartureFeedback));
  EXPECT_FALSE(orr->has(hs::dispatch::kDepartureFeedback));
  EXPECT_EQ(orr->machine_count(), kSpeeds.size());
}

TEST(Policy, EstimateFactorForwarded) {
  // ORR with +10% load estimate differs from exact and moves towards WRR.
  const auto exact = policy_allocation(PolicyKind::kORR, kSpeeds, 0.7, 1.0);
  const auto over = policy_allocation(PolicyKind::kORR, kSpeeds, 0.7, 1.10);
  const auto weighted = policy_allocation(PolicyKind::kWRR, kSpeeds, 0.7);
  bool any_difference = false;
  for (size_t i = 0; i < kSpeeds.size(); ++i) {
    if (std::abs(exact[i] - over[i]) > 1e-9) {
      any_difference = true;
    }
    EXPECT_LE(std::abs(over[i] - weighted[i]),
              std::abs(exact[i] - weighted[i]) + 1e-12);
  }
  EXPECT_TRUE(any_difference);
}

TEST(Policy, EstimateFactorIgnoredByWeighted) {
  const auto a = policy_allocation(PolicyKind::kWRR, kSpeeds, 0.7, 1.0);
  const auto b = policy_allocation(PolicyKind::kWRR, kSpeeds, 0.7, 1.15);
  for (size_t i = 0; i < kSpeeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(Policy, FactoryProducesIdenticalFreshDispatchers) {
  const auto factory = policy_dispatcher_factory(PolicyKind::kORR, kSpeeds,
                                                 0.7);
  auto d1 = factory();
  auto d2 = factory();
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);
  hs::rng::Xoshiro256 g1(1), g2(2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(d1->pick(g1), d2->pick(g2));
  }
}

}  // namespace
