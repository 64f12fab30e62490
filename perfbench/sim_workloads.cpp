// Workload shapes, their set-up, and the three simulation workloads.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "cluster/config.h"
#include "dispatch/hedged.h"
#include "rng/rng.h"
#include "util/check.h"

namespace perfbench {

namespace {

using hs::cluster::SimulationConfig;
using hs::cluster::SimulationResult;
using hs::core::PolicyKind;
using hs::dispatch::SamplerKind;

constexpr size_t kLargeN = 10000;
/// Completions per latency sample of a simulation run.
constexpr uint64_t kChunkJobs = 1024;

/// Straggler re-issue delay, seconds: well above the response time of
/// all but the largest Bounded Pareto jobs, so only stragglers hedge.
hs::dispatch::HedgingConfig hedging_config() {
  hs::dispatch::HedgingConfig config;
  config.delay = 5000.0;
  return config;
}

std::string hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

/// Times each simulation run in chunks of kChunkJobs completions via
/// the run's completion hook: one sample = host ns per job of a chunk.
/// Every run the benchmark times carries this hook — the measured
/// rounds and both sides of the traced/untraced comparison — so all of
/// them time the same run_simulation path.
class ChunkTimer {
 public:
  void start_run() {
    completions_ = 0;
    have_mark_ = false;
  }
  void on_completion() {
    if (++completions_ % kChunkJobs != 0) {
      return;
    }
    const Clock::time_point now = Clock::now();
    if (have_mark_) {
      samples_.push_back(static_cast<double>(elapsed_ns(mark_, now)) /
                         static_cast<double>(kChunkJobs));
    }
    mark_ = now;
    have_mark_ = true;
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  uint64_t completions_ = 0;
  bool have_mark_ = false;
  Clock::time_point mark_;
  std::vector<double> samples_;
};

/// Outcome of running one round.
struct RoundResult {
  std::vector<SimulationResult> results;  // one per policy, shape order
  std::vector<double> seconds;            // host seconds per run
};

RoundResult run_round(std::vector<PreparedRun>& runs, SpanLog& log,
                      ChunkTimer& chunks) {
  RoundResult out;
  for (PreparedRun& run : runs) {
    run.config.completion_hook = [&chunks](const hs::queueing::Completion&,
                                           bool) { chunks.on_completion(); };
    chunks.start_run();
    ScopedSpan span(log, "cluster.run_simulation");
    const Clock::time_point t0 = Clock::now();
    SimulationResult result = hs::cluster::run_simulation(run.config,
                                                          *run.dispatcher);
    out.seconds.push_back(seconds_since(t0));
    run.config.completion_hook = nullptr;
    span.set_count(result.total_completed);
    out.results.push_back(std::move(result));
  }
  return out;
}

/// Correctness gate for one run: conservation always; at the default
/// seed's first round, the recorded digest too.
void check_run(const Options& options, const DigestTable& digests,
               const PreparedRun& run, const SimulationResult& result,
               bool first_round, Report& report) {
  report.attempt();
  const std::string policy = run.policy.label();
  if (!conserves_jobs(result)) {
    std::ostringstream why;
    why << options.workload << "/" << policy << ": arrivals "
        << result.total_arrivals << " != completed " << result.total_completed
        << " + shed " << result.total_shed << " + dropped "
        << result.total_dropped << " + in flight " << result.in_flight_at_end;
    report.fail(why.str());
    return;
  }
  if (result.total_completed == 0) {
    report.fail(options.workload + "/" + policy + ": no job completed");
    return;
  }
  if (!first_round) {
    return;
  }
  const uint64_t digest = result_digest(result);
  if (options.print_digests) {
    std::cout << "digest " << options.workload << " " << options.seed << " "
              << policy << " " << hex(digest) << "\n";
  }
  if (options.seed != kDefaultSeed) {
    return;
  }
  const auto it = digests.find(digest_key(options.workload, options.seed,
                                          policy));
  if (it == digests.end()) {
    report.fail(options.workload + "/" + policy +
                ": no recorded digest for the default seed");
  } else if (it->second != digest) {
    report.fail(options.workload + "/" + policy + ": digest " + hex(digest) +
                " != recorded " + hex(it->second));
  }
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

uint64_t completed(const std::vector<SimulationResult>& results) {
  uint64_t total = 0;
  for (const SimulationResult& r : results) {
    total += r.total_completed;
  }
  return total;
}

}  // namespace

// ---- Reporting ----------------------------------------------------------

void Report::fail(const std::string& why, uint64_t count) {
  failed_ += count;
  std::cerr << "FAIL: " << why << "\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  note(name, value, unit);
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  std::ostringstream line;
  line.precision(6);
  line << "  " << name << " = " << value << " " << unit;
  if (!detail.empty()) {
    line << "  (" << detail << ")";
  }
  std::cout << line.str() << "\n";
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the process image before exec (the launching interpreter's).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  HS_CHECK(false, "no VmHWM in /proc/self/status");
  return 0.0;
}

void finish_spans(const SpanLog& log, const std::string& path) {
  if (!path.empty()) {
    std::ofstream out(path);
    HS_CHECK(out.good(), "cannot write spans to " << path);
    write_spans_json(out, log.spans());
  }
  std::cout << "span self time (ms, by name):\n";
  for (const NameTotal& t : totals_by_name(log.spans())) {
    std::ostringstream line;
    line.precision(4);
    line << "  " << t.name << ": self " << static_cast<double>(t.self_ns) / 1e6
         << " of " << static_cast<double>(t.total_ns) / 1e6 << " over "
         << t.spans << " spans";
    std::cout << line.str() << "\n";
  }
}

// ---- Shapes, configs and stacks -----------------------------------------

std::string PolicySpec::label() const {
  std::string name = hs::core::policy_name(kind);
  return sampler == SamplerKind::kAlias ? name + "-alias" : name;
}

Shape make_shape(const std::string& workload, uint64_t seed) {
  Shape shape;
  shape.workload = workload;
  if (workload == "paper-base") {
    shape.speeds = hs::cluster::ClusterConfig::paper_base().speeds();
    shape.policies = {{PolicyKind::kORR},
                      {PolicyKind::kWRAN},
                      {PolicyKind::kORAN},
                      {PolicyKind::kWRR},
                      {PolicyKind::kLeastLoad}};
    shape.sim_time = 4.0e6;  // the paper's run length
    shape.probe_sim_time = 2.0e5;
  } else if (workload == "large-n") {
    shape.speeds = hs::cluster::ClusterConfig::paper_size(kLargeN).speeds();
    shape.policies = {{PolicyKind::kORR},
                      {PolicyKind::kLeastLoad},
                      {PolicyKind::kORAN, SamplerKind::kAlias}};
    shape.sim_time = 300.0;
    shape.probe_sim_time = 20.0;
  } else if (workload == "fault-drill") {
    shape.speeds = hs::cluster::ClusterConfig::paper_base().speeds();
    shape.policies = {{PolicyKind::kORR}, {PolicyKind::kLeastLoad}};
    shape.sim_time = 1.0e6;
    shape.probe_sim_time = 2.0e5;
    shape.robust = true;
  } else if (workload == "serve") {
    // The served cluster: seed-generated speeds, as a deployment's
    // measured machine speeds would be.
    hs::rng::Xoshiro256 gen(hs::rng::derive_seed(seed, 0, 0xbe7c));
    shape.speeds.resize(kLargeN);
    for (double& s : shape.speeds) {
      s = gen.uniform(0.5, 20.0);
    }
    shape.policies = {{PolicyKind::kLeastLoad}};
    shape.sim_time = 100.0;
    shape.probe_sim_time = 20.0;
  } else {
    HS_CHECK(false, "unknown workload '" << workload << "'");
  }
  return shape;
}

void add_faults(SimulationConfig& config) {
  config.faults.processes.assign(config.speeds.size(), {2.0e5, 300.0});
  config.faults.retry.max_attempts = 3;
  config.faults.retry.backoff_initial = 5.0;
  config.faults.retry.backoff_factor = 2.0;
}

void add_overload(SimulationConfig& config) {
  // Admission sheds at 24 resident jobs; retries and hedges bypass it and
  // meet the bounded queue instead.
  config.overload.queue_capacity = 25;
  config.overload.admission = hs::overload::AdmissionKind::kQueueBoundShed;
  config.overload.admission_queue_bound = 24;
}

void add_network(SimulationConfig& config) {
  config.network.dispatch_link.loss = 0.005;
  config.network.dispatch_link.duplicate = 0.005;
  config.network.dispatch_link.delay_mean = 0.01;
  config.network.report_link.loss = 0.005;
  config.network.heartbeat.interval = 10.0;
}

SimulationConfig base_config(const Shape& shape, double sim_time,
                             uint64_t run_seed) {
  SimulationConfig config;
  config.speeds = shape.speeds;
  config.rho = kRho;
  config.sim_time = sim_time;
  config.seed = run_seed;
  if (shape.robust) {
    add_faults(config);
    add_overload(config);
    add_network(config);
  }
  return config;
}

hs::overload::CircuitBreakerConfig breaker_config() {
  hs::overload::CircuitBreakerConfig config;
  config.trip_threshold = 3;
  config.cooldown = 10.0;
  config.probe_successes = 2;
  return config;
}

std::unique_ptr<hs::dispatch::Dispatcher> build_stack(
    const PolicySpec& policy, const std::vector<double>& speeds, bool robust) {
  if (!robust) {
    return hs::core::make_policy_dispatcher(policy.kind, speeds, kRho, 1.0,
                                            policy.sampler);
  }
  auto fault_aware = hs::core::make_fault_aware_dispatcher(
      policy.kind, speeds, kRho, 1.0, policy.sampler);
  auto hedged = hs::core::make_hedged_dispatcher(std::move(fault_aware),
                                                 hedging_config());
  return std::make_unique<hs::overload::CircuitBreakerDispatcher>(
      std::move(hedged), breaker_config());
}

std::unique_ptr<hs::dispatch::Dispatcher> build_hedged(
    const PolicySpec& policy, const std::vector<double>& speeds) {
  return hs::core::make_hedged_dispatcher(
      hs::core::make_policy_dispatcher(policy.kind, speeds, kRho, 1.0,
                                       policy.sampler),
      hedging_config());
}

hs::explore::Schedule make_schedule(uint64_t seed, size_t machines,
                                    double sim_time) {
  using hs::cluster::ChoiceKind;
  using hs::explore::Override;
  hs::rng::Xoshiro256 gen(hs::rng::derive_seed(seed, 0, 0x5c4ed));
  hs::explore::Schedule schedule;
  std::set<std::tuple<int, uint32_t, uint32_t>> targets;
  const auto add = [&](const Override& op) {
    if (targets.emplace(static_cast<int>(op.kind), op.entity, op.occurrence)
            .second) {
      schedule.ops.push_back(op);
    }
  };
  const auto machine = [&] {
    return static_cast<uint32_t>(gen.next_below(machines));
  };
  // Forced crashes: a few machines go down mid-run for minutes.
  for (int i = 0; i < 3; ++i) {
    const uint32_t m = machine();
    add(Override::force_double(ChoiceKind::kFaultUptime, m, 0,
                               gen.uniform(0.1, 0.9) * sim_time));
    add(Override::force_double(ChoiceKind::kFaultDowntime, m, 0,
                               gen.uniform(60.0, 600.0)));
  }
  // Forced dispatch losses and a suppressed hedge.
  for (int i = 0; i < 6; ++i) {
    add(Override::force_bool(ChoiceKind::kDispatchLoss, machine(),
                             static_cast<uint32_t>(gen.next_below(200)), true));
  }
  add(Override::force_bool(ChoiceKind::kHedgeIssue, 0,
                           static_cast<uint32_t>(gen.next_below(20)), false));
  // The replayed schedule is the decoded HSSCHED1 file, as a repro is.
  return hs::explore::Schedule::decode(schedule.encode());
}

std::vector<PreparedRun> prepare_round(const Shape& shape, double sim_time,
                                       uint64_t run_seed, SpanLog& log) {
  std::vector<PreparedRun> runs;
  runs.reserve(shape.policies.size());
  std::optional<hs::explore::Schedule> schedule;
  if (shape.robust) {
    ScopedSpan span(log, "explore.schedule");
    schedule = make_schedule(run_seed, shape.speeds.size(), sim_time);
  }
  for (const PolicySpec& policy : shape.policies) {
    PreparedRun run;
    run.policy = policy;
    run.config = base_config(shape, sim_time, run_seed);
    {
      ScopedSpan span(log, "core.build");
      run.dispatcher = build_stack(policy, shape.speeds, shape.robust);
    }
    if (shape.robust) {
      ScopedSpan span(log, "obs.sink");
      run.sink = std::make_unique<hs::obs::TraceSink>(kTraceRecords);
      run.observer = std::make_unique<hs::obs::Observer>();
      run.observer->trace = run.sink.get();
      run.config.observer = run.observer.get();
      run.hook = std::make_unique<hs::explore::ScheduleHook>(*schedule);
      run.config.choice_hook = run.hook.get();
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

uint64_t round_seed(uint64_t seed, uint64_t round) {
  return hs::rng::derive_seed(seed, round, hs::rng::Stream::kReplication);
}

DigestTable load_digests(const std::string& path) {
  DigestTable table;
  if (path.empty()) {
    return table;
  }
  std::ifstream in(path);
  HS_CHECK(in.good(), "cannot read digests from " << path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    std::string policy;
    std::string digest;
    uint64_t seed = 0;
    HS_CHECK(static_cast<bool>(fields >> workload >> seed >> policy >> digest),
             "malformed digest line: " << line);
    table[digest_key(workload, seed, policy)] =
        std::stoull(digest, nullptr, 16);
  }
  return table;
}

std::string digest_key(const std::string& workload, uint64_t seed,
                       const std::string& policy) {
  return workload + " " + std::to_string(seed) + " " + policy;
}

// ---- The simulation workloads -------------------------------------------

namespace {

/// Untraced end-to-end run: set-up repeated for its median, then whole
/// rounds (every policy once, a fresh seed each) until `seconds` of run
/// time accrue.
int run_untraced(const Options& options, const Shape& shape,
                 const DigestTable& digests) {
  Report report;
  SpanLog off(false);
  SetupSampler setup;

  // Each end-to-end figure is the median over rounds of that round's
  // figure, so one disturbed round moves one sample, not the result.
  std::vector<double> round_rates;
  std::vector<double> round_p50;
  std::vector<double> round_p99;
  size_t chunk_samples = 0;
  double run_seconds = 0.0;
  uint64_t jobs = 0;
  uint64_t arrivals = 0;
  uint64_t lost = 0;
  std::vector<SimulationResult> first_round;
  uint64_t rounds = 0;
  while (rounds == 0 || run_seconds < options.seconds) {
    setup.sample(
        [&] {
          return prepare_round(shape, shape.sim_time,
                               round_seed(options.seed, rounds), off);
        },
        kSetupSliceSeconds);
    auto runs = prepare_round(shape, shape.sim_time,
                              round_seed(options.seed, rounds), off);
    ChunkTimer chunks;
    RoundResult round = run_round(runs, off, chunks);
    uint64_t round_jobs = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      const SimulationResult& r = round.results[i];
      check_run(options, digests, runs[i], r, rounds == 0, report);
      round_jobs += r.total_completed;
      arrivals += r.total_arrivals;
      lost += r.total_shed + r.total_dropped;
    }
    jobs += round_jobs;
    run_seconds += sum(round.seconds);
    round_rates.push_back(static_cast<double>(round_jobs) /
                          sum(round.seconds));
    round_p50.push_back(quantile(chunks.samples(), 0.50));
    round_p99.push_back(quantile(chunks.samples(), 0.99));
    chunk_samples += chunks.samples().size();
    if (rounds == 0) {
      first_round = round.results;
    }
    ++rounds;
  }

  std::cout << "workload " << options.workload << " seed " << options.seed
            << ": " << rounds << " rounds of " << shape.policies.size()
            << " runs, " << jobs << " jobs in " << run_seconds << " s\n";
  for (size_t i = 0; i < shape.policies.size(); ++i) {
    Report::note("mean_response_ratio", first_round[i].mean_response_ratio, "",
                 shape.policies[i].label() + ", first round");
  }
  Report::note("sim_jobs_per_s", static_cast<double>(jobs) / run_seconds,
               "1/s", "all rounds");
  Report::note("job_loss_ratio",
               static_cast<double>(lost) / static_cast<double>(arrivals),
               "ratio");
  Report::note("error_rate",
               static_cast<double>(report.failed()) /
                   static_cast<double>(report.attempted()),
               "ratio", std::to_string(report.attempted()) + " runs");

  Report::note("rounds", static_cast<double>(rounds), "",
               "medians over rounds below; n=" +
                   std::to_string(chunk_samples) + " chunks of " +
                   std::to_string(kChunkJobs) + " jobs, " +
                   std::to_string(setup.samples()) + " set-up samples");
  report.metric("jobs_per_s", median(round_rates), "1/s");
  report.metric("latency_p50_ns", median(round_p50), "ns");
  report.metric("latency_p99_ns", median(round_p99), "ns");
  report.metric("setup_s", setup.median_s(), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const bool correct = report.failed() == 0;
  std::cout << result_json(correct, report.attempted(), report.failed(),
                           report.metrics())
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

SimLedger traced_round(const Options& options, const Shape& shape,
                       const DigestTable& digests, SpanLog& log,
                       Report& report) {
  SimLedger ledger;
  SpanLog off(false);
  const uint64_t seed0 = round_seed(options.seed, 0);

  RoundResult plain;
  ChunkTimer plain_chunks;
  ChunkTimer traced_chunks;
  {
    // One span around the whole untraced round: none inside it.
    ScopedSpan span(log, "untraced_round");
    auto plain_runs = prepare_round(shape, shape.sim_time, seed0, off);
    plain = run_round(plain_runs, off, plain_chunks);
  }

  {
    ScopedSpan span(log, "setup");
    ledger.runs = prepare_round(shape, shape.sim_time, seed0, log);
  }
  RoundResult traced = run_round(ledger.runs, log, traced_chunks);

  for (size_t i = 0; i < ledger.runs.size(); ++i) {
    check_run(options, digests, ledger.runs[i], traced.results[i], true,
              report);
    const uint64_t a = result_digest(plain.results[i]);
    const uint64_t b = result_digest(traced.results[i]);
    const std::string policy = ledger.runs[i].policy.label();
    std::cout << "  identity " << policy << ": untraced " << hex(a)
              << " traced " << hex(b) << (a == b ? "" : "  MISMATCH") << "\n";
    if (a != b) {
      report.fail(options.workload + "/" + policy +
                  ": traced run differs from untraced run");
    }
  }
  ledger.untraced_jobs_per_s =
      static_cast<double>(completed(plain.results)) / sum(plain.seconds);
  ledger.traced_jobs_per_s =
      static_cast<double>(completed(traced.results)) / sum(traced.seconds);
  ledger.primary_ns_per_job =
      traced.seconds[0] * 1e9 /
      static_cast<double>(traced.results[0].total_completed);
  ledger.results = std::move(traced.results);
  return ledger;
}

int run_sim_workload(const Options& options) {
  const Shape shape = make_shape(options.workload, options.seed);
  const DigestTable digests = load_digests(options.digests_path);
  if (!options.trace) {
    return run_untraced(options, shape, digests);
  }

  Report report;
  SpanLog log(true);
  {
    ScopedSpan root(log, "bench." + options.workload);
    SimLedger sim = traced_round(options, shape, digests, log, report);
    Report::note("trace sim_jobs_per_s untraced", sim.untraced_jobs_per_s,
                 "1/s");
    Report::note("trace sim_jobs_per_s traced", sim.traced_jobs_per_s, "1/s");
    report.metric("trace.overhead_ratio",
                  sim.untraced_jobs_per_s / sim.traced_jobs_per_s, "ratio");
    report_layer_ledger(shape, options.seed, sim, log, report,
                        options.spans_path.empty()
                            ? "perfbench-snapshot.hssnap"
                            : options.spans_path + ".hssnap");
  }
  finish_spans(log, options.spans_path);
  const bool correct = report.failed() == 0;
  std::cout << result_json(correct, report.attempted(), report.failed(),
                           report.metrics())
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
