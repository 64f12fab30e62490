// The repository benchmark's workloads, probes and reporting.
//
// Four workloads run through the entry points users call —
// cluster::run_simulation over the core::make_*_dispatcher stacks, and
// serving::ServingDispatcher. An untraced run reports the end-to-end
// metrics; a traced run (--trace 1) replays the workload with spans
// around the benchmark's calls into each layer and reports the
// per-layer ledger. README.md in this directory documents every metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/dispatcher.h"
#include "dispatch/random_dispatcher.h"
#include "explore/hook.h"
#include "explore/schedule.h"
#include "ledger.h"
#include "obs/observer.h"
#include "overload/circuit_breaker.h"
#include "serving/serving_dispatcher.h"

namespace perfbench {

/// The seed whose simulated statistics are pinned in digests.txt.
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr double kRho = 0.7;
/// Trace ring per traced run: the most recent records, as a crash
/// investigation keeps them (fault-drill records ~4 per job and wraps).
inline constexpr size_t kTraceRecords = size_t{1} << 14;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string digests_path;  // recorded digests (empty = none)
  std::string spans_path;    // where a traced run writes its spans
  bool print_digests = false;
};

/// What one benchmark invocation reports: operations attempted and
/// failed (a failed operation broke a correctness check), and the
/// metrics of the final JSON line.
class Report {
 public:
  void attempt(uint64_t count = 1) { attempted_ += count; }
  /// Count `count` failed operations and say why on stderr.
  void fail(const std::string& why, uint64_t count = 1);
  /// Record a JSON metric and print it as a readable line.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Print an informational line (not part of the JSON result).
  static void note(const std::string& name, double value,
                   const std::string& unit, const std::string& detail = "");

  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// One policy of a workload: the Table 2 kind plus the weighted sampler.
struct PolicySpec {
  hs::core::PolicyKind kind = hs::core::PolicyKind::kORR;
  hs::dispatch::SamplerKind sampler = hs::dispatch::SamplerKind::kCdf;
  [[nodiscard]] std::string label() const;
};

/// The cluster, policies and layer set a workload runs — its shape. The
/// per-layer probes replay each layer at the shape of the workload they
/// report for. The first policy is the workload's primary policy.
struct Shape {
  std::string workload;
  std::vector<double> speeds;
  std::vector<PolicySpec> policies;
  double sim_time = 0.0;        // simulated seconds per main run
  double probe_sim_time = 0.0;  // simulated seconds per ledger probe run
  bool robust = false;          // full robustness set + trace + schedule
};

/// The shape of a named workload at `seed` ("paper-base", "large-n",
/// "fault-drill", "serve"). Throws util::CheckError on an unknown name.
[[nodiscard]] Shape make_shape(const std::string& workload, uint64_t seed);

/// The workload's simulation config for one run: the paper workload at
/// ρ = 0.7 over the shape's cluster, with the robustness set when the
/// shape is robust. Trace sink and choice hook are attached separately.
[[nodiscard]] hs::cluster::SimulationConfig base_config(const Shape& shape,
                                                        double sim_time,
                                                        uint64_t run_seed);

/// The robustness layers of fault-drill, one at a time.
void add_faults(hs::cluster::SimulationConfig& config);
void add_overload(hs::cluster::SimulationConfig& config);
void add_network(hs::cluster::SimulationConfig& config);

/// The circuit breaker settings of the robust stacks (the explorer's).
[[nodiscard]] hs::overload::CircuitBreakerConfig breaker_config();

/// The policy's dispatcher stack: the bare policy, or with `robust` the
/// CircuitBreaker(Hedged(FaultAware(policy))) decorator stack.
[[nodiscard]] std::unique_ptr<hs::dispatch::Dispatcher> build_stack(
    const PolicySpec& policy, const std::vector<double>& speeds, bool robust);
/// The bare policy wrapped for hedging only.
[[nodiscard]] std::unique_ptr<hs::dispatch::Dispatcher> build_hedged(
    const PolicySpec& policy, const std::vector<double>& speeds);

/// A seed-generated fault schedule for `machines` machines over
/// `sim_time` seconds, round-tripped through its HSSCHED1 encoding.
[[nodiscard]] hs::explore::Schedule make_schedule(uint64_t seed,
                                                  size_t machines,
                                                  double sim_time);

/// Everything one simulation run needs, owned together so the config's
/// observer and hook pointers stay valid.
struct PreparedRun {
  PolicySpec policy;
  hs::cluster::SimulationConfig config;
  std::unique_ptr<hs::dispatch::Dispatcher> dispatcher;
  std::unique_ptr<hs::obs::TraceSink> sink;
  std::unique_ptr<hs::obs::Observer> observer;
  std::unique_ptr<hs::explore::ScheduleHook> hook;
};

/// Build every run of one round: configs, Algorithm 1 allocations,
/// dispatcher stacks, trace sinks and schedules. This is the workload's
/// set-up; its spans ("core.build", "obs.sink", "explore.schedule") go
/// to `log`.
[[nodiscard]] std::vector<PreparedRun> prepare_round(const Shape& shape,
                                                     double sim_time,
                                                     uint64_t run_seed,
                                                     SpanLog& log);

/// Seed of round `round` of a run started with `seed`.
[[nodiscard]] uint64_t round_seed(uint64_t seed, uint64_t round);

/// Recorded digests: "workload seed policy" → digest.
using DigestTable = std::map<std::string, uint64_t>;
[[nodiscard]] DigestTable load_digests(const std::string& path);
[[nodiscard]] std::string digest_key(const std::string& workload,
                                     uint64_t seed, const std::string& policy);

/// The traced replay of a workload's first round, run once untraced and
/// once traced at the same seed.
struct SimLedger {
  std::vector<PreparedRun> runs;  // the traced round's runs
  std::vector<hs::cluster::SimulationResult> results;
  double untraced_jobs_per_s = 0.0;
  double traced_jobs_per_s = 0.0;
  double primary_ns_per_job = 0.0;  // traced host ns per job, policy 0
};

/// Run round 0 of the shape untraced and traced, check both, and fail
/// the report when their simulated statistics differ in any bit.
[[nodiscard]] SimLedger traced_round(const Options& options,
                                     const Shape& shape,
                                     const DigestTable& digests, SpanLog& log,
                                     Report& report);

/// Every per-layer metric at the shape: the layer probes, the counts of
/// the traced round, the layer on-cost ratios and the serving rows.
/// The serving probe saves one HSSNAP1 snapshot to `snapshot_path` to
/// measure its size, and removes it.
void report_layer_ledger(const Shape& shape, uint64_t seed,
                         const SimLedger& sim, SpanLog& log, Report& report,
                         const std::string& snapshot_path);

/// The serve workload's ServingDispatcher config: wall clock, release
/// deadlines armed (health detection on) and arrival recording on.
[[nodiscard]] hs::serving::ServingConfig serve_config(uint64_t seed);

/// Run the simulation workloads (paper-base, large-n, fault-drill).
int run_sim_workload(const Options& options);
/// Run the serve workload.
int run_serve_workload(const Options& options);

/// Hand the allocator's free memory back to the kernel (malloc_trim), so
/// the next allocations fault in fresh pages as a new process's do.
void release_free_memory();

/// Set-up time, sampled in slices spread over a run, so that it sees the
/// same host phases as the run's other figures rather than one moment.
/// Each set-up is built alone on a trimmed heap and destroyed before the
/// next, so it pays for fresh pages as the first set-up of a new process
/// does, and holding it adds nothing to the run's peak memory; only the
/// build is timed. A sample is the mean time per set-up over a group of
/// set-ups whose timed total reaches 2 ms, so a microsecond-scale set-up
/// is not dominated by clock reads and single-call jitter. setup_s is
/// the median sample.
class SetupSampler {
 public:
  /// Take samples of `fn`, which returns the set-up, for `seconds` of
  /// wall time (at least one sample).
  template <typename Fn>
  void sample(Fn&& fn, double seconds) {
    const Clock::time_point start = Clock::now();
    do {
      double timed = 0.0;
      size_t builds = 0;
      while (timed < 2e-3) {
        release_free_memory();
        const Clock::time_point t0 = Clock::now();
        [[maybe_unused]] const auto setup = fn();
        timed += seconds_since(t0);
        ++builds;
      }
      samples_.push_back(timed / static_cast<double>(builds));
    } while (seconds_since(start) < seconds);
  }

  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] size_t samples() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

/// Wall time of one set-up slice, taken before each round (simulation)
/// or segment (serve).
inline constexpr double kSetupSliceSeconds = 0.05;

/// Peak resident set size of this process image, MiB.
[[nodiscard]] double peak_rss_mb();

/// Write the span log to `path` and print the per-name self times.
void finish_spans(const SpanLog& log, const std::string& path);

}  // namespace perfbench
