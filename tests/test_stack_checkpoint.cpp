// Checkpoint contract through the robustness decorator stacks
// (dispatch/dispatcher.h: a restore is exact, or it returns 0 and leaves
// the dispatcher unchanged). Round trips run through every decorator
// layer; a corrupt inner segment must leave a masking decorator — its
// own mask and the wrapped dispatcher — exactly as it was.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "dispatch/dispatcher.h"
#include "dispatch/hedged.h"
#include "overload/circuit_breaker.h"
#include "rng/rng.h"

namespace {

using hs::core::PolicyKind;
using hs::dispatch::Dispatcher;
using hs::overload::CircuitBreakerConfig;

const std::vector<double> kSpeeds = {1.0, 2.0, 2.0, 3.0};
constexpr double kRho = 0.7;

CircuitBreakerConfig quick_breaker() {
  CircuitBreakerConfig config;
  config.trip_threshold = 3;
  config.cooldown = 10.0;
  config.probe_successes = 2;
  return config;
}

using StackFactory = std::function<std::unique_ptr<Dispatcher>()>;

/// Feeds `jobs` arrivals through `d`: every pick is accepted, and every
/// other job reports a departure from the machine picked before it.
/// Identical calls on identical stacks leave identical state.
void drive(Dispatcher& d, double& t, int jobs, std::vector<size_t>* picks) {
  hs::rng::Xoshiro256 gen(17);
  size_t previous = 0;
  for (int i = 0; i < jobs; ++i) {
    t += 0.3;
    d.on_arrival(t);
    const size_t machine = d.pick_sized(gen, 1.0);
    d.on_dispatch_result(machine, true, t);
    if (i % 2 == 1) {
      d.on_departure_report(previous, t, 1.0);
    }
    previous = machine;
    if (picks != nullptr) {
      picks->push_back(machine);
    }
  }
}

/// Trips `machine`'s breaker (if any layer has one) through dispatch
/// failures.
void fail_dispatches(Dispatcher& d, size_t machine, double t) {
  for (size_t i = 0; i < quick_breaker().trip_threshold; ++i) {
    d.on_dispatch_result(machine, false, t);
  }
}

std::vector<double> saved(const Dispatcher& d) {
  std::vector<double> state;
  const size_t written = d.save_state(state);
  EXPECT_EQ(written, state.size());
  return state;
}

/// After the same calls, `a` and `b` pick the same 1,000 machines and
/// save the same state.
void expect_twins(Dispatcher& a, double a_t, Dispatcher& b, double b_t,
                  const std::string& label) {
  std::vector<size_t> a_picks;
  std::vector<size_t> b_picks;
  drive(a, a_t, 1000, &a_picks);
  drive(b, b_t, 1000, &b_picks);
  EXPECT_EQ(a_picks, b_picks) << label;
  EXPECT_EQ(saved(a), saved(b)) << label;
}

// ---- Round trip through every decorator layer ----

void expect_round_trip(const StackFactory& make, const std::string& label) {
  auto donor = make();
  double t = 0.0;
  drive(*donor, t, 300, nullptr);
  donor->on_machine_state_report(2, /*up=*/false);  // crash report
  fail_dispatches(*donor, 1, t);                    // breaker trip
  drive(*donor, t, 300, nullptr);
  const std::vector<double> state = saved(*donor);

  auto twin = make();
  ASSERT_EQ(twin->restore_state(state), state.size()) << label;
  EXPECT_EQ(saved(*twin), state) << label;
  expect_twins(*donor, t, *twin, t, label);
}

TEST(StackCheckpoint, FaultDrillStackRoundTrips) {
  // breaker(hedged(fault-aware(ORR))): the perfbench fault-drill stack.
  expect_round_trip(
      [] {
        return std::make_unique<hs::overload::CircuitBreakerDispatcher>(
            hs::core::make_hedged_dispatcher(
                hs::core::make_fault_aware_dispatcher(PolicyKind::kORR,
                                                      kSpeeds, kRho),
                hs::dispatch::HedgingConfig{1.5}),
            quick_breaker());
      },
      "B(H(F(ORR)))");
}

TEST(StackCheckpoint, HedgedFaultAwareLeastLoadRoundTrips) {
  expect_round_trip(
      [] {
        return hs::core::make_hedged_dispatcher(
            hs::core::make_fault_aware_dispatcher(PolicyKind::kLeastLoad,
                                                  kSpeeds, kRho),
            hs::dispatch::HedgingConfig{1.5});
      },
      "H(F(LL))");
}

// ---- A declined inner restore leaves the decorator unchanged ----

/// The donor's own prefix is valid but the inner dispatcher's last saved
/// value is not. The victim, whose mask differs from the donor's, must
/// decline the restore as a whole and keep routing like its untouched
/// twin.
void expect_corrupt_inner_declined(
    const StackFactory& make,
    const std::function<void(Dispatcher&, size_t, double)>& take_down,
    const std::string& label) {
  auto donor = make();
  double donor_t = 0.0;
  drive(*donor, donor_t, 200, nullptr);
  take_down(*donor, 2, donor_t);
  drive(*donor, donor_t, 200, nullptr);
  std::vector<double> state = saved(*donor);
  state.back() = std::numeric_limits<double>::quiet_NaN();

  auto victim = make();
  auto twin = make();
  double victim_t = 0.0;
  double twin_t = 0.0;
  for (auto* d : {victim.get(), twin.get()}) {
    double& t = d == victim.get() ? victim_t : twin_t;
    drive(*d, t, 150, nullptr);
    take_down(*d, 1, t);
    drive(*d, t, 150, nullptr);
  }
  EXPECT_EQ(victim->restore_state(state), 0u) << label;
  expect_twins(*victim, victim_t, *twin, twin_t, label);
}

void crash(Dispatcher& d, size_t machine, double /*t*/) {
  d.on_machine_state_report(machine, /*up=*/false);
}

TEST(FaultAware, CorruptInnerStateLeavesDecoratorUnchanged) {
  for (PolicyKind kind : {PolicyKind::kORR, PolicyKind::kLeastLoad}) {
    expect_corrupt_inner_declined(
        [kind] {
          return hs::core::make_fault_aware_dispatcher(kind, kSpeeds, kRho);
        },
        crash, "fault-aware over " + hs::core::policy_name(kind));
  }
}

TEST(CircuitBreaker, CorruptInnerStateLeavesDecoratorUnchanged) {
  for (PolicyKind kind : {PolicyKind::kORR, PolicyKind::kLeastLoad}) {
    expect_corrupt_inner_declined(
        [kind] {
          return hs::core::make_circuit_breaker_dispatcher(
              kind, kSpeeds, kRho, quick_breaker());
        },
        fail_dispatches,
        "circuit-breaker over " + hs::core::policy_name(kind));
  }
}

}  // namespace
