// Allocation accounting for the event engine.
//
// The typed-event refactor's core promise: once a run's backing arrays
// have grown to their working depth, scheduling, firing, cancelling and
// rescheduling events performs ZERO heap allocations. These tests pin
// that with instrumented global operator new/delete — if a std::function
// or stray container growth sneaks back onto the hot path, the counters
// catch it.
//
// The counters are only read around explicitly bracketed sections, so
// the instrumentation does not interfere with gtest's own allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/choice.h"
#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/hedged.h"
#include "explore/hook.h"
#include "explore/schedule.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "overload/circuit_breaker.h"
#include "queueing/job.h"
#include "queueing/ps_server.h"
#include "rng/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

std::atomic<uint64_t> g_news{0};
std::atomic<uint64_t> g_bytes{0};

}  // namespace

// Count every allocation (and its bytes) in the binary; tests diff the
// counters around the section under scrutiny.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line, so GCC does not inline free() into callers of a replaced
// operator new and report the pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

using hs::queueing::Job;
using hs::queueing::PsServer;
using hs::rng::Xoshiro256;
using hs::sim::EventArgs;
using hs::sim::EventQueue;
using hs::sim::EventTarget;
using hs::sim::Simulator;

class AllocGuard {
 public:
  AllocGuard()
      : start_(g_news.load(std::memory_order_relaxed)),
        start_bytes_(g_bytes.load(std::memory_order_relaxed)) {}
  [[nodiscard]] uint64_t count() const {
    return g_news.load(std::memory_order_relaxed) - start_;
  }
  [[nodiscard]] uint64_t bytes() const {
    return g_bytes.load(std::memory_order_relaxed) - start_bytes_;
  }

 private:
  uint64_t start_;
  uint64_t start_bytes_;
};

class CountingTarget final : public EventTarget {
 public:
  void on_event(uint32_t, const EventArgs&) override { ++fired; }
  uint64_t fired = 0;
};

TEST(EventAllocation, TypedPushPopSteadyStateIsAllocationFree) {
  EventQueue queue;
  CountingTarget target;
  Xoshiro256 gen(11);
  // Grow the backing arrays past the working depth first (the loop below
  // reaches depth 257 for one push).
  queue.reserve(512);
  for (int i = 0; i < 256; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0,
               EventArgs::pack(i));
    queue.pop().fire();
    queue.push(gen.uniform(0.0, 1000.0), target, 1);  // no-args variant
    queue.pop().fire();
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(target.fired, 20000u);
}

TEST(EventAllocation, CancelAndRescheduleAreAllocationFree) {
  EventQueue queue;
  CountingTarget target;
  Xoshiro256 gen(13);
  for (int i = 0; i < 256; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  auto moving = queue.push(gen.uniform(0.0, 1000.0), target, 0);
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(queue.reschedule(moving, gen.uniform(0.0, 1000.0)));
    auto handle = queue.push(gen.uniform(0.0, 1000.0), target, 0);
    EXPECT_TRUE(queue.cancel(handle));
  }
  EXPECT_EQ(guard.count(), 0u);
}

TEST(EventAllocation, SmallCallbackCapturesStayInline) {
  EventQueue queue;
  Xoshiro256 gen(17);
  uint64_t sum = 0;
  // Warm the slot pool through the callback path so steady state below
  // only reuses slots (the loop reaches depth 257 for one push).
  queue.reserve(512);
  for (int i = 0; i < 256; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), [&sum] { ++sum; });
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    // Capture well under InlineFn::kInlineCapacity: pointer + value.
    const uint64_t value = static_cast<uint64_t>(i);
    queue.push(gen.uniform(0.0, 1000.0), [&sum, value] { sum += value; });
    queue.pop().fire();  // earliest event: warm-up or freshly pushed
  }
  EXPECT_EQ(guard.count(), 0u);
  while (!queue.empty()) {
    queue.pop().fire();
  }
  // Every scheduled callback fired exactly once, in some time order.
  EXPECT_EQ(sum, 256u + 10000u * 9999u / 2u);
}

// With observability disabled (the default: no trace sink attached),
// the server's instrumentation sites are single never-taken branches —
// steady state stays allocation-free per event, exactly as before the
// obs/ subsystem existed.
TEST(EventAllocation, PsServerSteadyStateIsAllocationFree) {
  Simulator sim;
  PsServer server(sim, 1.0, 0);
  uint64_t completions = 0;
  server.set_completion_callback(
      [&completions](const hs::queueing::Completion&) { ++completions; });
  uint64_t id = 0;
  double t = 0.0;
  // Warm-up: grow the event queue, the server's active-job heap, and the
  // completion callback's storage.
  for (int i = 0; i < 512; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  EXPECT_EQ(guard.count(), 0u);
  sim.run_all();
  EXPECT_EQ(completions, id);
}

// Observability ON is allocation-free too: the trace ring is
// preallocated at construction, so record() is a handful of stores even
// across ring wrap-around.
TEST(EventAllocation, PsServerSteadyStateWithTracingIsAllocationFree) {
  Simulator sim;
  PsServer server(sim, 1.0, 0);
  // Small capacity so the steady-state loop wraps the ring many times.
  hs::obs::TraceSink sink(1024);
  server.set_trace_sink(&sink);
  uint64_t id = 0;
  double t = 0.0;
  for (int i = 0; i < 512; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(sink.size(), sink.capacity());  // wrapped, silently counted
  EXPECT_GT(sink.overwritten(), 0u);
}

// A bounded queue in steady rejection churn allocates nothing either:
// arrive() refuses a job with a comparison against the resident count —
// the rejected Job never touches the server's storage.
TEST(EventAllocation, BoundedQueueRejectionsAreAllocationFree) {
  Simulator sim;
  PsServer server(sim, 1.0, 0);
  server.set_capacity(4);
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t id = 0;
  double t = 0.0;
  // Warm-up: arrivals outpace service (1.0 work every 0.5 s on a
  // speed-1 server), so the queue pins at capacity and most arrivals
  // bounce.
  for (int i = 0; i < 512; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&] {
      if (server.arrive(Job{id, t, 1.0})) {
        ++accepted;
      } else {
        ++rejected;
      }
    });
    ++id;
    sim.run_until(t);
  }
  EXPECT_GT(rejected, 0u);
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&] {
      if (server.arrive(Job{id, t, 1.0})) {
        ++accepted;
      } else {
        ++rejected;
      }
    });
    ++id;
    sim.run_until(t);
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_LE(server.queue_length(), 4u);
  sim.run_all();
  EXPECT_EQ(accepted + rejected, id);
}

// Sampling a reserved registry touches no allocator either: the flat
// sample matrix is grown once by reserve_samples().
TEST(EventAllocation, ReservedMetricsSamplingIsAllocationFree) {
  hs::obs::MetricsRegistry registry;
  double gauge_value = 0.0;
  uint64_t counter = 0;
  registry.register_gauge("g", [&gauge_value] { return gauge_value; });
  registry.register_counter("c", &counter);
  registry.reserve_samples(10000);
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    gauge_value += 0.5;
    ++counter;
    registry.sample(static_cast<double>(i));
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(registry.sample_count(), 10000u);
}

// ---- The robust dispatch path ---------------------------------------------
//
// A run with hedging, lossy and duplicating links, heartbeats, a trace
// sink and a replayed schedule, but no crashes: the flight table, the
// job -> scheduler table and the hook's counters reach their working
// size early, so a 4x longer run allocates only a few dozen more times
// (vector doublings as the servers' queues reach deeper peaks), not
// once per job.

hs::cluster::SimulationConfig robust_config(double sim_time) {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 1.0, 1.5, 2.0, 5.0, 10.0};
  config.rho = 0.7;
  config.sim_time = sim_time;
  config.seed = 3;
  config.network.dispatch_link.loss = 0.005;
  config.network.dispatch_link.duplicate = 0.005;
  config.network.dispatch_link.delay_mean = 0.01;
  config.network.report_link.loss = 0.005;
  config.network.heartbeat.interval = 10.0;
  return config;
}

struct RobustRun {
  uint64_t allocations = 0;
  uint64_t completed = 0;
  uint64_t hedges = 0;
};

RobustRun run_robust(double sim_time) {
  hs::cluster::SimulationConfig config = robust_config(sim_time);
  hs::dispatch::HedgingConfig hedging;
  hedging.delay = 5.0;
  hs::overload::CircuitBreakerConfig breaker;
  breaker.trip_threshold = 3;
  breaker.cooldown = 10.0;
  hs::overload::CircuitBreakerDispatcher dispatcher(
      hs::core::make_hedged_dispatcher(
          hs::core::make_fault_aware_dispatcher(hs::core::PolicyKind::kORR,
                                                config.speeds, config.rho),
          hedging),
      breaker);
  hs::explore::Schedule schedule;
  for (uint32_t m = 0; m < 6; ++m) {
    schedule.ops.push_back(hs::explore::Override::force_bool(
        hs::cluster::ChoiceKind::kDispatchLoss, m, 10 + m, true));
  }
  hs::explore::ScheduleHook hook(schedule);
  config.choice_hook = &hook;
  hs::obs::TraceSink sink(4096);
  hs::obs::Observer observer;
  observer.trace = &sink;
  config.observer = &observer;

  AllocGuard guard;
  const auto result = hs::cluster::run_simulation(config, dispatcher);
  RobustRun run;
  run.allocations = guard.count();
  run.completed = result.total_completed;
  run.hedges = result.hedges_issued;
  EXPECT_EQ(hook.applied(), schedule.ops.size());
  EXPECT_GT(result.msgs_lost, 0u);
  EXPECT_GT(sink.overwritten(), 0u);
  return run;
}

TEST(EventAllocation, RobustRunAllocationsDoNotGrowWithJobs) {
  const RobustRun short_run = run_robust(5000.0);
  const RobustRun long_run = run_robust(20000.0);
  ASSERT_GT(long_run.completed, 3 * short_run.completed);
  EXPECT_GT(short_run.hedges, 0u);
  // Thousands of jobs more; a few dozen more allocations at most.
  EXPECT_LE(long_run.allocations, short_run.allocations + 32)
      << "short run " << short_run.allocations << " allocations for "
      << short_run.completed << " jobs, long run " << long_run.allocations
      << " for " << long_run.completed;
}

TEST(EventAllocation, ScheduleHookAtMaxEntityAllocatesPerOpNotPerEntity) {
  constexpr uint32_t kMaxEntity = (1u << 24) - 1;
  hs::explore::Schedule schedule;
  schedule.ops.push_back(hs::explore::Override::force_bool(
      hs::cluster::ChoiceKind::kDispatchLoss, kMaxEntity, 0, true));
  schedule.ops.push_back(hs::explore::Override::force_double(
      hs::cluster::ChoiceKind::kFaultUptime, kMaxEntity, 3, 1.0));
  AllocGuard guard;
  hs::explore::ScheduleHook hook(schedule);
  // A counter table sized to the entity would be 2^24 entries.
  EXPECT_LT(guard.bytes(), 4096u);
  // Consulting a small entity grows only that kind's table, and only
  // to the entity consulted.
  AllocGuard consult;
  EXPECT_FALSE(hook.on_bool(hs::cluster::ChoiceKind::kDispatchLoss, 3, false));
  EXPECT_LT(consult.bytes(), 1024u);
}

}  // namespace
