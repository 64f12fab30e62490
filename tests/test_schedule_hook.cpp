// explore::ScheduleHook's dense choice-point counters against the
// map-based reference hook (tests/schedule_hook_reference.h): over
// random consult streams and schedules, and over whole simulated runs,
// every returned value, applied() and sites() must match exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "cluster/choice.h"
#include "cluster/sim.h"
#include "dispatch/least_load.h"
#include "explore/hook.h"
#include "explore/schedule.h"
#include "rng/rng.h"
#include "schedule_hook_reference.h"

namespace {

using hs::cluster::ChoiceKind;
using hs::explore::Override;
using hs::explore::Schedule;
using hs::explore::ScheduleHook;
using hs::testing::ReferenceScheduleHook;

constexpr uint32_t kKinds = static_cast<uint32_t>(ChoiceKind::kCount);
constexpr uint32_t kMaxEntity = (1u << 24) - 1;

uint64_t bits_of(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void expect_same_sites(const ScheduleHook& hook,
                       const ReferenceScheduleHook& reference) {
  const auto got = hook.sites();
  const auto want = reference.sites();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "site " << i;
    EXPECT_EQ(got[i].entity, want[i].entity) << "site " << i;
    EXPECT_EQ(got[i].consults, want[i].consults) << "site " << i;
  }
}

/// `ops` overrides on entities below `entities` and occurrences below
/// `occurrences`, plus one op at the largest legal entity.
Schedule random_schedule(hs::rng::Xoshiro256& gen, size_t ops,
                         uint32_t entities, uint32_t occurrences) {
  Schedule schedule;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> targets;
  const auto add = [&](ChoiceKind kind, uint32_t entity,
                       uint32_t occurrence) {
    if (!targets.emplace(static_cast<uint32_t>(kind), entity, occurrence)
             .second) {
      return;
    }
    schedule.ops.push_back(
        hs::cluster::choice_kind_is_bool(kind)
            ? Override::force_bool(kind, entity, occurrence,
                                   gen.next_below(2) == 1)
            : Override::force_double(kind, entity, occurrence,
                                     gen.uniform(0.0, 100.0)));
  };
  for (size_t i = 0; i < ops; ++i) {
    add(static_cast<ChoiceKind>(gen.next_below(kKinds)),
        static_cast<uint32_t>(gen.next_below(entities)),
        static_cast<uint32_t>(gen.next_below(occurrences)));
  }
  add(static_cast<ChoiceKind>(gen.next_below(kKinds)), kMaxEntity, 0);
  return schedule;
}

TEST(ScheduleHookDifferential, RandomConsultStreamsMatchReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    hs::rng::Xoshiro256 gen(seed);
    const uint32_t entities = 1 + static_cast<uint32_t>(gen.next_below(16));
    const Schedule schedule = random_schedule(
        gen, gen.next_below(40), entities,
        1 + static_cast<uint32_t>(gen.next_below(60)));
    ScheduleHook hook(schedule);
    ReferenceScheduleHook reference(schedule);
    for (int i = 0; i < 5000; ++i) {
      const auto kind = static_cast<ChoiceKind>(gen.next_below(kKinds));
      // A few consults land past every scheduled entity, so the counter
      // tables grow mid-stream.
      const auto entity = static_cast<uint32_t>(
          gen.next_below(gen.next_below(8) == 0 ? 4 * entities : entities));
      if (hs::cluster::choice_kind_is_bool(kind)) {
        const bool drawn = gen.next_below(2) == 1;
        ASSERT_EQ(hook.on_bool(kind, entity, drawn),
                  reference.on_bool(kind, entity, drawn))
            << "seed " << seed << " consult " << i;
      } else {
        const double drawn = gen.uniform(0.0, 10.0);
        ASSERT_EQ(bits_of(hook.on_double(kind, entity, drawn)),
                  bits_of(reference.on_double(kind, entity, drawn)))
            << "seed " << seed << " consult " << i;
      }
    }
    EXPECT_EQ(hook.applied(), reference.applied()) << "seed " << seed;
    expect_same_sites(hook, reference);
  }
}

TEST(ScheduleHookDifferential, SimulatedRunsMatchReference) {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 2.0, 3.0};
  config.rho = 0.8;
  config.sim_time = 200.0;
  config.warmup_frac = 0.0;
  config.seed = 7;
  config.faults.processes.assign(3, {300.0, 20.0});
  config.network.dispatch_link.loss = 0.01;
  config.network.dispatch_link.duplicate = 0.01;
  config.network.report_link.loss = 0.01;
  config.network.heartbeat.interval = 1.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    hs::rng::Xoshiro256 gen(seed);
    const Schedule schedule = random_schedule(gen, 12, 3, 40);

    ScheduleHook hook(schedule);
    config.choice_hook = &hook;
    hs::dispatch::LeastLoadDispatcher first(config.speeds);
    const auto a = hs::cluster::run_simulation(config, first);

    ReferenceScheduleHook reference(schedule);
    config.choice_hook = &reference;
    hs::dispatch::LeastLoadDispatcher second(config.speeds);
    const auto b = hs::cluster::run_simulation(config, second);

    EXPECT_EQ(a.events_fired, b.events_fired) << "seed " << seed;
    EXPECT_EQ(a.total_completed, b.total_completed) << "seed " << seed;
    EXPECT_EQ(a.total_dropped, b.total_dropped) << "seed " << seed;
    EXPECT_EQ(a.msgs_lost, b.msgs_lost) << "seed " << seed;
    EXPECT_EQ(bits_of(a.mean_response_time), bits_of(b.mean_response_time))
        << "seed " << seed;
    EXPECT_EQ(a.machine_downtime, b.machine_downtime) << "seed " << seed;
    EXPECT_EQ(hook.applied(), reference.applied()) << "seed " << seed;
    EXPECT_GT(hook.applied(), 0u) << "seed " << seed;
    expect_same_sites(hook, reference);
  }
}

TEST(ScheduleHook, CountersCoverOnlyConsultedEntities) {
  Schedule schedule;
  schedule.ops.push_back(
      Override::force_bool(ChoiceKind::kDispatchLoss, kMaxEntity, 0, true));
  schedule.ops.push_back(
      Override::force_bool(ChoiceKind::kDispatchLoss, 5, 1, true));
  ScheduleHook hook(schedule);
  EXPECT_TRUE(hook.sites().empty());
  // Entity 5: occurrence 0 passes through, occurrence 1 is overridden.
  EXPECT_FALSE(hook.on_bool(ChoiceKind::kDispatchLoss, 5, false));
  EXPECT_TRUE(hook.on_bool(ChoiceKind::kDispatchLoss, 5, false));
  EXPECT_FALSE(hook.on_bool(ChoiceKind::kDispatchLoss, 5, false));
  EXPECT_FALSE(hook.on_bool(ChoiceKind::kDispatchLoss, 2, false));
  EXPECT_EQ(hook.applied(), 1u);
  const auto sites = hook.sites();
  ASSERT_EQ(sites.size(), 2u);  // entities 0-1 and 3-4 were never seen
  EXPECT_EQ(sites[0].entity, 2u);
  EXPECT_EQ(sites[0].consults, 1u);
  EXPECT_EQ(sites[1].entity, 5u);
  EXPECT_EQ(sites[1].consults, 3u);
}

}  // namespace
