// Hedged-dispatch decorator and decorator-stack composition: the three
// robustness decorators (Hedged / FaultAware / CircuitBreaker) must
// produce the same routing mask in every stacking order, over a
// natively masking core (Least-Load) and a reweighted static one (ORR),
// keep every layer through fault transitions, and the full simulation
// must conserve arrivals with any of them outermost.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/decorator.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "dispatch/least_load.h"
#include "overload/circuit_breaker.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::dispatch::Dispatcher;
using hs::dispatch::FaultAwareDispatcher;
using hs::dispatch::HedgedDispatcher;
using hs::dispatch::HedgingConfig;
using hs::dispatch::LeastLoadDispatcher;
using hs::dispatch::SurvivorMask;
using hs::core::PolicyKind;
using hs::overload::CircuitBreakerConfig;
using hs::overload::CircuitBreakerDispatcher;

TEST(Hedged, ConfigIsValidated) {
  HedgingConfig config;
  EXPECT_FALSE(config.enabled());
  config.validate();  // off is fine
  config.delay = 2.5;
  EXPECT_TRUE(config.enabled());
  config.validate();
  config.delay = -1.0;
  EXPECT_THROW(config.validate(), hs::util::CheckError);
}

TEST(Hedged, ForwardsPicksAndCounts) {
  const std::vector<double> speeds = {1.0, 1.0};
  HedgedDispatcher hedged(std::make_unique<LeastLoadDispatcher>(speeds),
                          HedgingConfig{2.0});
  EXPECT_TRUE(hedged.config().enabled());
  EXPECT_EQ(hedged.machine_count(), 2u);
  // Least-Load underneath.
  EXPECT_TRUE(hedged.has(hs::dispatch::kDepartureFeedback));

  hs::rng::Xoshiro256 gen(7);
  const size_t primary = hedged.pick(gen);
  // Least-Load's pick_hedge never returns the excluded machine while an
  // alternative exists.
  const size_t second = hedged.pick_hedge(gen, 1.0, primary);
  EXPECT_NE(second, primary);

  hedged.record_issued();
  hedged.record_issued();
  hedged.record_won();
  hedged.record_cancelled();
  EXPECT_EQ(hedged.issued(), 2u);
  EXPECT_EQ(hedged.won(), 1u);
  EXPECT_EQ(hedged.cancelled(), 1u);
  hedged.reset();
  EXPECT_EQ(hedged.issued(), 0u);
}

// ---------------------------------------------------------------------
// Stacking-order consistency.

enum class Wrap { kHedged, kFaultAware, kBreaker };

const char* wrap_name(Wrap w) {
  switch (w) {
    case Wrap::kHedged:
      return "H";
    case Wrap::kFaultAware:
      return "F";
    case Wrap::kBreaker:
      return "B";
  }
  return "?";
}

/// The core policy under the decorators: Least-Load masks natively, ORR
/// (a static allocation) is reweighted over the survivors in place.
enum class Core { kLeastLoad, kOrr };

const std::array<Core, 2> kCores = {Core::kLeastLoad, Core::kOrr};

constexpr double kCoreRho = 0.6;

/// Wraps the core in the three decorators, innermost first. Over ORR,
/// the masking decorators get the Algorithm-1 survivor reweighter (one
/// shared scratch per stack); a decorator whose inner layer masks
/// natively ignores it.
std::unique_ptr<Dispatcher> build_stack(const std::array<Wrap, 3>& order,
                                        const std::vector<double>& speeds,
                                        Core core = Core::kLeastLoad) {
  std::unique_ptr<Dispatcher> d;
  SurvivorMask::Reweighter reweighter;
  if (core == Core::kLeastLoad) {
    d = std::make_unique<LeastLoadDispatcher>(speeds);
  } else {
    d = hs::core::make_policy_dispatcher(PolicyKind::kORR, speeds, kCoreRho);
    reweighter = hs::core::policy_masked_reweighter(PolicyKind::kORR, speeds,
                                                    kCoreRho);
  }
  for (Wrap w : order) {
    switch (w) {
      case Wrap::kHedged:
        d = std::make_unique<HedgedDispatcher>(std::move(d),
                                               HedgingConfig{1.5});
        break;
      case Wrap::kFaultAware:
        d = std::make_unique<FaultAwareDispatcher>(std::move(d), reweighter);
        break;
      case Wrap::kBreaker:
        d = std::make_unique<CircuitBreakerDispatcher>(
            std::move(d), CircuitBreakerConfig{}, reweighter);
        break;
    }
  }
  return d;
}

const std::array<std::array<Wrap, 3>, 6>& all_orders() {
  static const std::array<std::array<Wrap, 3>, 6> kOrders = {{
      {Wrap::kHedged, Wrap::kFaultAware, Wrap::kBreaker},
      {Wrap::kHedged, Wrap::kBreaker, Wrap::kFaultAware},
      {Wrap::kFaultAware, Wrap::kHedged, Wrap::kBreaker},
      {Wrap::kFaultAware, Wrap::kBreaker, Wrap::kHedged},
      {Wrap::kBreaker, Wrap::kHedged, Wrap::kFaultAware},
      {Wrap::kBreaker, Wrap::kFaultAware, Wrap::kHedged},
  }};
  return kOrders;
}

std::string order_label(const std::array<Wrap, 3>& order,
                        Core core = Core::kLeastLoad) {
  // Innermost-first build order; label outermost-first for readability.
  const char* core_name = core == Core::kLeastLoad ? "LL" : "ORR";
  return std::string(wrap_name(order[2])) + "(" + wrap_name(order[1]) + "(" +
         wrap_name(order[0]) + "(" + core_name + ")))";
}

/// Layer names as the stack reports them, outermost first.
std::string stack_name(const std::array<Wrap, 3>& order, Core core) {
  std::string name = core == Core::kLeastLoad ? "least-load" : "round-robin";
  for (Wrap w : order) {
    switch (w) {
      case Wrap::kHedged:
        name = "hedged(" + name + ")";
        break;
      case Wrap::kFaultAware:
        name = "fault-aware(" + name + ")";
        break;
      case Wrap::kBreaker:
        name = "circuit-breaker(" + name + ")";
        break;
    }
  }
  return name;
}

TEST(Hedged, AllStackOrdersExposeBothFeedbackChannels) {
  const std::vector<double> speeds = {1.0, 1.0, 1.0, 1.0};
  for (Core core : kCores) {
    for (const auto& order : all_orders()) {
      auto stack = build_stack(order, speeds, core);
      const std::string label = order_label(order, core);
      EXPECT_TRUE(stack->has(hs::dispatch::kFaultFeedback)) << label;
      EXPECT_TRUE(stack->has(hs::dispatch::kOverloadFeedback)) << label;
      // Departure reports are the core's own input: Least-Load's.
      EXPECT_EQ(stack->has(hs::dispatch::kDepartureFeedback),
                core == Core::kLeastLoad)
          << label;
    }
  }
}

TEST(Hedged, AllStackOrdersProduceConsistentMasks) {
  const std::vector<double> speeds = {1.0, 1.0, 1.0, 1.0};
  const CircuitBreakerConfig breaker_defaults;
  for (Core core : kCores) {
    for (const auto& order : all_orders()) {
      auto stack = build_stack(order, speeds, core);
      const std::string label = order_label(order, core);
      const std::string name = stack_name(order, core);
      EXPECT_EQ(stack->name(), name) << label;
      // Machine 0 is reported down through the fault channel; machine 1
      // accumulates enough consecutive dispatch failures to trip its
      // breaker. Whatever the stacking order, the events must reach the
      // decorator that consumes them.
      stack->on_machine_state_report(0, false);
      for (size_t i = 0; i < breaker_defaults.trip_threshold; ++i) {
        stack->on_dispatch_result(1, false, 1.0 + static_cast<double>(i));
      }
      hs::rng::Xoshiro256 gen(123);
      std::set<size_t> picked;
      for (int i = 0; i < 200; ++i) {
        picked.insert(stack->pick(gen));
      }
      EXPECT_EQ(picked, (std::set<size_t>{2, 3})) << label;
      // A hedge pick honors the combined mask too. Least-Load also
      // honors the exclusion; ORR's default hedge re-runs its pick.
      const size_t hedge = stack->pick_hedge(gen, 1.0, 2);
      if (core == Core::kLeastLoad) {
        EXPECT_EQ(hedge, 3u) << label;
      } else {
        EXPECT_TRUE(hedge == 2u || hedge == 3u) << label << " " << hedge;
      }
      EXPECT_EQ(stack->name(), name) << label << " after crash and trip";
      // Recovery restores machine 0 (breaker 1 stays open until cooldown).
      stack->on_machine_state_report(0, true);
      picked.clear();
      for (int i = 0; i < 200; ++i) {
        picked.insert(stack->pick(gen));
      }
      EXPECT_EQ(picked, (std::set<size_t>{0, 2, 3})) << label;
      EXPECT_EQ(stack->name(), name) << label << " after recovery";
      // Exactly one hedging layer is reachable from the top of the stack.
      EXPECT_NE(hs::dispatch::find_layer<HedgedDispatcher>(stack.get()),
                nullptr)
          << label;
    }
  }
}

// ---------------------------------------------------------------------
// Full simulation per ordering: exactly-once conservation holds with
// loss + partition + heartbeat suspicion + hedging active, whatever the
// decorator order.

TEST(Hedged, ConservationHoldsForEveryStackOrder) {
  for (Core core : kCores) {
    for (const auto& order : all_orders()) {
      const std::string label = order_label(order, core);
      for (uint64_t seed : {11u, 29u, 47u}) {
        hs::cluster::SimulationConfig config;
        config.speeds = {4.0, 2.0, 1.0};
        config.rho = 0.8;
        config.sim_time = 2000.0;
        config.warmup_frac = 0.1;
        config.seed = seed;
        config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
        config.workload.size_kind = hs::workload::SizeKind::kExponential;
        config.workload.fixed_or_mean_size = 1.0;
        config.network.dispatch_link.loss = 0.05;
        config.network.dispatch_link.delay_mean = 0.05;
        config.network.report_link.loss = 0.05;
        config.network.partitions.push_back({500.0, 200.0, {2}});
        config.network.heartbeat.interval = 1.0;
        config.network.heartbeat.phi_threshold = 3.0;
        config.faults.retry.max_attempts = 4;
        config.faults.retry.backoff_initial = 0.5;

        auto stack = build_stack(order, config.speeds, core);
        const auto result = hs::cluster::run_simulation(config, *stack);
        EXPECT_GT(result.completed_jobs, 0u) << label;
        EXPECT_GT(result.hedges_issued, 0u) << label;
        EXPECT_LE(result.hedges_won, result.hedges_issued) << label;
        EXPECT_EQ(stack->name(), stack_name(order, core)) << label;
        EXPECT_GT(result.total_arrivals, 0u);
        EXPECT_EQ(result.total_arrivals,
                  result.total_completed + result.total_shed +
                      result.total_dropped + result.in_flight_at_end)
            << label << " seed=" << seed
            << " arrivals=" << result.total_arrivals
            << " completed=" << result.total_completed
            << " shed=" << result.total_shed
            << " dropped=" << result.total_dropped
            << " in_flight=" << result.in_flight_at_end;
      }
    }
  }
}

}  // namespace
