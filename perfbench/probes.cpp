// The per-layer ledger: standalone probes of each layer at a workload's
// shape, counts from the traced round, layer on-cost ratios and the
// single-client serving rows. Every probe runs inside a span; timings
// come from the spans or, for percentiles, from individually timed calls.
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/metrics.h"
#include "queueing/ps_server.h"
#include "rng/rng.h"
#include "serving/serving_dispatcher.h"
#include "serving/snapshot.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "workload/spec.h"

namespace perfbench {

namespace {

using hs::cluster::SimulationConfig;
using hs::cluster::SimulationResult;

/// Wall-time budget of one probe loop, seconds.
constexpr double kProbeSeconds = 0.4;

/// Run `fn` inside span `name` covering `count` operations; returns the
/// span's nanoseconds per operation.
template <typename Fn>
double timed_span(SpanLog& log, const std::string& name, uint64_t count,
                  Fn&& fn) {
  const int32_t index = log.open(name);
  fn();
  log.close(index, count);
  return static_cast<double>(log.spans()[static_cast<size_t>(index)]
                                 .duration_ns()) /
         static_cast<double>(count);
}

/// Mean duration of repeated calls in one span: at least 5 calls, then
/// more until kProbeSeconds/2 have passed (at most 10⁶).
template <typename Fn>
double mean_span_ns(SpanLog& log, const std::string& name, Fn&& fn) {
  const int32_t index = log.open(name);
  const Clock::time_point start = Clock::now();
  uint64_t calls = 0;
  while ((calls < 5 || seconds_since(start) < kProbeSeconds / 2) &&
         calls < 1000000) {
    fn();
    ++calls;
  }
  log.close(index, calls);
  return static_cast<double>(
             log.spans()[static_cast<size_t>(index)].duration_ns()) /
         static_cast<double>(calls);
}

/// Keeps a value observable so the compiler cannot drop the work.
volatile double g_consumed = 0.0;
void consume(double value) { g_consumed = value; }

double lambda_of(const Shape& shape) {
  return base_config(shape, 1.0, 0).lambda();
}

// ---- Standalone layer probes --------------------------------------------

double probe_draw(const Shape& shape, uint64_t seed, SpanLog& log) {
  const auto spec = hs::workload::WorkloadSpec::paper_default();
  auto arrivals = spec.make_arrivals(lambda_of(shape));
  const auto sizes = spec.make_size_model();
  hs::rng::Xoshiro256 gen(
      hs::rng::derive_seed(seed, 0, hs::rng::Stream::kArrival));
  constexpr uint64_t kDraws = uint64_t{1} << 20;
  return timed_span(log, "workload.draw", kDraws, [&] {
    double total = 0.0;
    for (uint64_t i = 0; i < kDraws; ++i) {
      total += arrivals->next_interarrival(gen) + sizes.sample(gen);
    }
    consume(total);
  });
}

struct PickReplay {
  double pick_p50_ns = 0.0;
  double pick_p99_ns = 0.0;
  double pick_mean_ns = 0.0;
  double report_ns = 0.0;
  uint64_t picks = 0;
};

/// pick_sized / on_departure_report replayed on a fresh stack: every
/// pick is reported back after 256 later picks, so feedback policies see
/// a standing load. Each call is timed alone (two clock reads, ~30 ns).
PickReplay probe_dispatch(const Shape& shape, uint64_t seed, SpanLog& log) {
  auto stack = build_stack(shape.policies[0], shape.speeds, shape.robust);
  const auto spec = hs::workload::WorkloadSpec::paper_default();
  auto arrivals = spec.make_arrivals(lambda_of(shape));
  const auto sizes = spec.make_size_model();
  hs::rng::Xoshiro256 draw_gen(
      hs::rng::derive_seed(seed, 0, hs::rng::Stream::kJobSize));
  hs::rng::Xoshiro256 gen(
      hs::rng::derive_seed(seed, 0, hs::rng::Stream::kDispatch));
  constexpr size_t window = 256;
  struct Pending {
    size_t machine;
    double size;
  };
  std::deque<Pending> pending;
  std::vector<double> picks;
  std::vector<double> reports;
  picks.reserve(200000);
  reports.reserve(200000);
  double now = 0.0;
  const int32_t span = log.open("dispatch.replay");
  const Clock::time_point start = Clock::now();
  while (picks.size() < 200000 &&
         (picks.size() % 256 != 0 || seconds_since(start) < kProbeSeconds)) {
    now += arrivals->next_interarrival(draw_gen);
    const double size = sizes.sample(draw_gen);
    stack->on_arrival(now);
    const Clock::time_point t0 = Clock::now();
    const size_t machine = stack->pick_sized(gen, size);
    const Clock::time_point t1 = Clock::now();
    picks.push_back(static_cast<double>(elapsed_ns(t0, t1)));
    pending.push_back({machine, size});
    if (pending.size() > window) {
      const Pending done = pending.front();
      pending.pop_front();
      const Clock::time_point t2 = Clock::now();
      stack->on_departure_report(done.machine, now, done.size);
      reports.push_back(static_cast<double>(elapsed_ns(t2, Clock::now())));
    }
  }
  log.close(span, picks.size());
  PickReplay out;
  out.picks = picks.size();
  out.pick_p50_ns = quantile(picks, 0.50);
  out.pick_p99_ns = quantile(picks, 0.99);
  double total = 0.0;
  for (double p : picks) {
    total += p;
  }
  out.pick_mean_ns = total / static_cast<double>(picks.size());
  out.report_ns = quantile(std::move(reports), 0.5);
  return out;
}

/// A standalone PsServer on its own Simulator, fed the substream of the
/// busiest machine under Algorithm 1: the machine's share of the paper
/// workload's arrivals, pre-drawn so the span times only the event
/// engine and the server.
double probe_ps(const Shape& shape, uint64_t seed, SpanLog& log) {
  const auto allocation = hs::core::policy_allocation(
      hs::core::PolicyKind::kORR, shape.speeds, kRho);
  size_t busiest = 0;
  for (size_t m = 1; m < shape.speeds.size(); ++m) {
    if (allocation[m] > allocation[busiest]) {
      busiest = m;
    }
  }
  const double rate = lambda_of(shape) * allocation[busiest];
  const auto spec = hs::workload::WorkloadSpec::paper_default();
  auto arrivals = spec.make_arrivals(rate);
  const auto sizes = spec.make_size_model();
  hs::rng::Xoshiro256 gen(
      hs::rng::derive_seed(seed, 0, hs::rng::Stream::kArrival));
  constexpr size_t kJobs = 200000;
  std::vector<hs::queueing::Job> jobs(kJobs);
  double t = 0.0;
  for (size_t i = 0; i < kJobs; ++i) {
    t += arrivals->next_interarrival(gen);
    jobs[i] = {i, t, sizes.sample(gen), 0};
  }

  hs::sim::Simulator simulator;
  hs::queueing::PsServer server(simulator, shape.speeds[busiest],
                                static_cast<int>(busiest));
  uint64_t completions = 0;
  server.set_completion_callback(
      [&completions](const hs::queueing::Completion&) { ++completions; });
  size_t next = 0;
  struct Feeder {
    hs::sim::Simulator& simulator;
    hs::queueing::PsServer& server;
    std::vector<hs::queueing::Job>& jobs;
    size_t& next;
    void arm() {
      if (next < jobs.size()) {
        simulator.schedule_at(jobs[next].arrival_time, [this] {
          server.arrive(jobs[next++]);
          arm();
        });
      }
    }
  } feeder{simulator, server, jobs, next};
  const int32_t span = log.open("queueing.ps");
  feeder.arm();
  simulator.run_all();
  log.close(span, completions);
  HS_CHECK(completions == kJobs, "PS probe completed " << completions << " of "
                                                       << kJobs << " jobs");
  return static_cast<double>(
             log.spans()[static_cast<size_t>(span)].duration_ns()) /
         static_cast<double>(completions);
}

class NullTarget final : public hs::sim::EventTarget {
 public:
  void on_event(uint32_t, const hs::sim::EventArgs&) override {}
};

/// EventQueue hold model at the workload's pending depth: each step pops
/// the earliest event, pushes a successor and reschedules it once.
double probe_events(const Shape& shape, uint64_t seed, SpanLog& log) {
  const size_t depth = (shape.robust ? 3 : 1) * shape.speeds.size() + 1;
  hs::rng::Xoshiro256 gen(hs::rng::derive_seed(seed, 0, 0xe7e7));
  std::vector<double> gaps(4096);
  for (double& g : gaps) {
    g = -std::log1p(-gen.next_double()) * static_cast<double>(depth);
  }
  NullTarget target;
  hs::sim::EventQueue queue;
  queue.reserve(depth + 2);
  for (size_t i = 0; i < depth; ++i) {
    queue.push(gaps[i % gaps.size()], target, 0);
  }
  constexpr uint64_t kSteps = uint64_t{1} << 20;
  return timed_span(log, "sim.event", 3 * kSteps, [&] {
    for (uint64_t i = 0; i < kSteps; ++i) {
      const auto fired = queue.pop();
      const double gap = gaps[i % gaps.size()];
      const auto handle = queue.push(fired.time + gap, target, 0);
      queue.reschedule(handle, fired.time + 0.5 * gap);
    }
  });
}

double probe_record(const Shape& shape, uint64_t seed, SpanLog& log) {
  const size_t n = shape.speeds.size();
  hs::rng::Xoshiro256 gen(hs::rng::derive_seed(seed, 0, 0x5747));
  const auto sizes = hs::workload::WorkloadSpec::paper_default()
                         .make_size_model();
  constexpr size_t kCompletions = size_t{1} << 18;
  std::vector<hs::queueing::Completion> completions(kCompletions);
  double t = 0.0;
  for (size_t i = 0; i < kCompletions; ++i) {
    auto& c = completions[i];
    t += gen.uniform(0.0, 2.0);
    c.job = {i, t, sizes.sample(gen), 0};
    c.departure_time = t + c.job.size * gen.uniform(0.1, 3.0);
    c.machine = static_cast<int>(gen.next_below(n));
  }
  hs::cluster::MetricsCollector collector(n);
  return timed_span(log, "stats.record", kCompletions, [&] {
    for (const auto& c : completions) {
      collector.on_completion(c, true);
    }
  });
}

// ---- Layer on-cost ratios -----------------------------------------------

/// Host time of run_simulation with one layer added to the shape's bare
/// primary-policy run, over the time without it (median of 3 each).
void probe_on_ratios(const Shape& shape, uint64_t seed, SpanLog& log,
                     Report& report) {
  const PolicySpec& policy = shape.policies[0];
  Shape bare = shape;
  bare.robust = false;
  const uint64_t run_seed = round_seed(seed, 1);
  const auto schedule =
      make_schedule(run_seed, shape.speeds.size(), shape.probe_sim_time);

  struct Variant {
    std::string metric;
    SimulationConfig config;
    std::unique_ptr<hs::dispatch::Dispatcher> stack;
    std::vector<double> seconds;
  };
  std::vector<Variant> variants;
  const auto add = [&](std::string metric) -> Variant& {
    Variant v;
    v.metric = std::move(metric);
    v.config = base_config(bare, shape.probe_sim_time, run_seed);
    variants.push_back(std::move(v));
    return variants.back();
  };
  add("base").stack = build_stack(policy, shape.speeds, false);
  {
    Variant& v = add("cluster.faults_on_ratio");
    add_faults(v.config);
    v.stack = hs::core::make_fault_aware_dispatcher(policy.kind, shape.speeds,
                                                    kRho, 1.0, policy.sampler);
  }
  {
    Variant& v = add("overload.on_ratio");
    add_overload(v.config);
    v.stack = hs::core::make_circuit_breaker_dispatcher(
        policy.kind, shape.speeds, kRho, breaker_config(), 1.0,
        policy.sampler);
  }
  {
    Variant& v = add("netfaults.on_ratio");
    add_network(v.config);
    v.stack = build_stack(policy, shape.speeds, false);
  }
  add("dispatch.hedging_on_ratio").stack = build_hedged(policy, shape.speeds);
  hs::obs::TraceSink sink(kTraceRecords);
  hs::obs::Observer observer;
  observer.trace = &sink;
  {
    Variant& v = add("obs.on_ratio");
    v.config.observer = &observer;
    v.stack = build_stack(policy, shape.speeds, false);
  }
  {
    Variant& v = add("explore.hook_on_ratio");
    v.stack = build_stack(policy, shape.speeds, false);
  }

  for (int rep = 0; rep < 3; ++rep) {
    for (Variant& v : variants) {
      // A fresh hook per run: its consult counters are per-run state.
      hs::explore::ScheduleHook hook(schedule);
      if (v.metric == "explore.hook_on_ratio") {
        v.config.choice_hook = &hook;
      }
      sink.clear();
      ScopedSpan span(log, "ledger." + v.metric);
      const Clock::time_point t0 = Clock::now();
      const SimulationResult r =
          hs::cluster::run_simulation(v.config, *v.stack);
      v.seconds.push_back(seconds_since(t0));
      span.set_count(r.total_completed);
      v.config.choice_hook = nullptr;
    }
  }
  const double base = median(variants[0].seconds);
  for (size_t i = 1; i < variants.size(); ++i) {
    report.metric(variants[i].metric, median(variants[i].seconds) / base,
                  "ratio");
  }
}

// ---- Counts of the robustness layers ------------------------------------

void report_counts(const std::vector<PreparedRun>& runs,
                   const std::vector<SimulationResult>& results,
                   Report& report) {
  uint64_t arrivals = 0, lost = 0, retried = 0, shed = 0, rejected = 0,
           dropped = 0, msgs_lost = 0, suspicions = 0, hedges = 0,
           hedges_won = 0, records = 0, consults = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const SimulationResult& r = results[i];
    arrivals += r.total_arrivals;
    lost += r.jobs_lost;
    retried += r.jobs_retried;
    shed += r.total_shed;
    dropped += r.total_dropped;
    rejected += r.jobs_rejected;
    msgs_lost += r.msgs_lost;
    suspicions += r.suspicions;
    hedges += r.hedges_issued;
    hedges_won += r.hedges_won;
    if (runs[i].sink != nullptr) {
      records += runs[i].sink->size() + runs[i].sink->overwritten();
    }
    if (runs[i].hook != nullptr) {
      for (const auto& site : runs[i].hook->sites()) {
        consults += site.consults;
      }
    }
  }
  const auto per_job = [&](uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(arrivals);
  };
  report.metric("cluster.job_loss_ratio", per_job(shed + dropped), "ratio");
  report.metric("cluster.jobs_lost", static_cast<double>(lost), "count");
  report.metric("cluster.jobs_retried", static_cast<double>(retried), "count");
  report.metric("overload.jobs_shed", static_cast<double>(shed), "count");
  report.metric("overload.jobs_rejected", static_cast<double>(rejected),
                "count");
  report.metric("netfaults.msgs_lost", static_cast<double>(msgs_lost),
                "count");
  report.metric("netfaults.suspicions", static_cast<double>(suspicions),
                "count");
  report.metric("dispatch.hedges_issued", static_cast<double>(hedges),
                "count");
  report.metric("dispatch.hedge_win_ratio",
                hedges == 0 ? 0.0
                            : static_cast<double>(hedges_won) /
                                  static_cast<double>(hedges),
                "ratio");
  report.metric("obs.records_per_job", per_job(records), "ratio");
  report.metric("explore.consults_per_job", per_job(consults), "ratio");
}

/// The robustness counts: fault-drill's own traced round, or for the
/// other workloads one all-on run of the primary policy at their shape.
void robustness_counts(const Shape& shape, uint64_t seed, const SimLedger& sim,
                       SpanLog& log, Report& report) {
  if (shape.robust) {
    report_counts(sim.runs, sim.results, report);
    return;
  }
  Shape all_on = shape;
  all_on.robust = true;
  all_on.policies = {shape.policies[0]};
  auto runs = prepare_round(all_on, shape.probe_sim_time, round_seed(seed, 2),
                            log);
  std::vector<SimulationResult> results;
  {
    ScopedSpan span(log, "ledger.all_on");
    results.push_back(
        hs::cluster::run_simulation(runs[0].config, *runs[0].dispatcher));
    span.set_count(results.back().total_completed);
  }
  HS_CHECK(conserves_jobs(results.back()),
           "all-on probe run broke job conservation");
  report_counts(runs, results, report);
}

// ---- Serving rows -------------------------------------------------------

void probe_serving(const Shape& shape, uint64_t seed, SpanLog& log,
                   Report& report, double pick_p50_ns,
                   const std::string& snapshot_path) {
  auto stack = build_stack(shape.policies[0], shape.speeds, shape.robust);
  hs::serving::ServingDispatcher serving(*stack, serve_config(seed));
  const auto sizes =
      hs::workload::WorkloadSpec::paper_default().make_size_model();
  hs::rng::Xoshiro256 gen(hs::rng::derive_seed(seed, 0, 0x5e7e));

  constexpr size_t kOutstanding = 8;
  struct Held {
    size_t machine;
    double size;
  };
  std::vector<Held> held;
  std::vector<double> acquires;
  std::vector<double> releases;
  acquires.reserve(200000);
  releases.reserve(200000);
  uint64_t bad = 0;
  const int32_t span = log.open("serving.client_1t");
  const Clock::time_point start = Clock::now();
  while (acquires.size() < 200000 &&
         (acquires.size() % 256 != 0 || seconds_since(start) < kProbeSeconds)) {
    if (held.size() == kOutstanding) {
      const Held h = held[acquires.size() % kOutstanding];
      const Clock::time_point t0 = Clock::now();
      const auto status = serving.release(h.machine, h.size);
      releases.push_back(static_cast<double>(elapsed_ns(t0, Clock::now())));
      bad += status != hs::serving::ServingStatus::kOk;
    }
    const double size = sizes.sample(gen);
    size_t machine = 0;
    const Clock::time_point t0 = Clock::now();
    const auto status = serving.try_acquire(size, machine);
    acquires.push_back(static_cast<double>(elapsed_ns(t0, Clock::now())));
    bad += status != hs::serving::ServingStatus::kOk;
    if (held.size() < kOutstanding) {
      held.push_back({machine, size});
    } else {
      held[(acquires.size() - 1) % kOutstanding] = {machine, size};
    }
  }
  log.close(span, acquires.size());
  for (const Held& h : held) {
    bad += serving.release(h.machine, h.size) != hs::serving::ServingStatus::kOk;
  }
  report.attempt(acquires.size() + releases.size() + held.size());
  if (bad != 0 || serving.in_flight() != 0 ||
      serving.acquired() != serving.released()) {
    report.fail("serving probe: " + std::to_string(bad) +
                " calls not ok, in flight " +
                std::to_string(serving.in_flight()));
  }

  const double acquire_p50 = quantile(acquires, 0.50);
  report.metric("serving.acquire_ns_1t_p50", acquire_p50, "ns");
  report.metric("serving.acquire_ns_1t_p99", quantile(acquires, 0.99), "ns");
  Report::note("  samples", static_cast<double>(acquires.size()), "");
  report.metric("serving.release_ns_p50", quantile(releases, 0.50), "ns");
  report.metric("serving.release_ns_p99", quantile(releases, 0.99), "ns");
  report.metric("serving.wrapper_ns", acquire_p50 - pick_p50_ns, "ns");
  report.metric("serving.tick_ns",
                mean_span_ns(log, "serving.tick", [&] { serving.tick(); }),
                "ns");
  hs::serving::ServingSnapshot snapshot;
  report.metric("serving.snapshot_ns",
                mean_span_ns(log, "serving.snapshot",
                               [&] { snapshot = serving.capture_snapshot(); }),
                "ns");
  hs::serving::save_snapshot_binary(snapshot_path, snapshot);
  std::FILE* file = std::fopen(snapshot_path.c_str(), "rb");
  HS_CHECK(file != nullptr, "cannot reopen " << snapshot_path);
  std::fseek(file, 0, SEEK_END);
  const long bytes = std::ftell(file);
  std::fclose(file);
  std::remove(snapshot_path.c_str());
  report.metric("serving.snapshot_bytes", static_cast<double>(bytes), "B");
}

}  // namespace

void report_layer_ledger(const Shape& shape, uint64_t seed,
                         const SimLedger& sim, SpanLog& log, Report& report,
                         const std::string& snapshot_path) {
  const double draw = probe_draw(shape, seed, log);
  report.metric("workload.draw_ns", draw, "ns");
  report.metric("alloc.solve_ns", mean_span_ns(log, "alloc.solve", [&] {
                  consume(hs::core::policy_allocation(
                              hs::core::PolicyKind::kORR, shape.speeds, kRho)
                              [0]);
                }),
                "ns");
  report.metric("core.build_ns", mean_span_ns(log, "core.build", [&] {
                  auto stack = build_stack(shape.policies[0], shape.speeds,
                                           shape.robust);
                  consume(static_cast<double>(stack->machine_count()));
                }),
                "ns");
  const PickReplay picks = probe_dispatch(shape, seed, log);
  report.metric("dispatch.pick_ns_p50", picks.pick_p50_ns, "ns");
  report.metric("dispatch.pick_ns_p99", picks.pick_p99_ns, "ns");
  Report::note("  samples", static_cast<double>(picks.picks), "");
  report.metric("dispatch.report_ns", picks.report_ns, "ns");

  const double ps = probe_ps(shape, seed, log);
  report.metric("queueing.ps_ns_per_job", ps, "ns");
  report.metric("sim.event_ns", probe_events(shape, seed, log), "ns");
  const double record = probe_record(shape, seed, log);
  report.metric("stats.record_ns", record, "ns");

  const SimulationResult& primary = sim.results[0];
  uint64_t dispatched = 0;
  for (const SimulationResult& r : sim.results) {
    dispatched += r.dispatched_jobs;
  }
  report.metric("dispatch.picks", static_cast<double>(dispatched), "count");
  report.metric("sim.events_per_job",
                static_cast<double>(primary.events_fired) /
                    static_cast<double>(primary.total_completed),
                "ratio");
  report.metric("stats.mean_response_ratio", primary.mean_response_ratio,
                "ratio");
  report.metric("cluster.self_ns_per_job",
                sim.primary_ns_per_job -
                    (draw + ps + record + picks.pick_mean_ns +
                     picks.report_ns),
                "ns");

  probe_on_ratios(shape, seed, log, report);
  robustness_counts(shape, seed, sim, log, report);
  probe_serving(shape, seed, log, report, picks.pick_p50_ns, snapshot_path);
}

}  // namespace perfbench
