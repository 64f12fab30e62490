// Measurement bookkeeping for the repository benchmark: spans around the
// benchmark's calls into each layer, their self times, the order
// statistics every reported timing goes through, and the digest that
// pins a simulation run's statistics.
//
// Spans are kept in memory while the benchmark runs and written out once
// at the end, so recording one costs a clock read and a vector append.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/sim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds from `from` to `to`.
[[nodiscard]] inline int64_t elapsed_ns(Clock::time_point from,
                                        Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Seconds elapsed since `from`.
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// One timed interval. `parent` indexes the enclosing span in the same
/// log (-1 for a root); `count` is the number of operations the span
/// covered (picks, draws, jobs), 0 when the span is a single operation.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t count = 0;

  [[nodiscard]] int64_t duration_ns() const { return end_ns - start_ns; }
};

/// An in-memory span log. Disabled, open() and close() do nothing, so
/// untraced runs share the traced code path at the cost of one branch.
/// Spans nest: a span opened while another is open becomes its child.
/// Single-threaded.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Start a span; returns its index, or -1 when disabled.
  int32_t open(std::string_view name);
  /// End span `index` (the innermost open one), recording `count`.
  void close(int32_t index, uint64_t count = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(uint64_t count) { count_ = count; }

 private:
  SpanLog& log_;
  int32_t index_;
  uint64_t count_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// sticking out of its parent counts only inside it).
[[nodiscard]] std::vector<int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a span log.
struct NameTotal {
  std::string name;
  uint64_t spans = 0;
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
[[nodiscard]] std::vector<NameTotal> totals_by_name(
    const std::vector<Span>& spans);

/// Write the span log and per-name totals as one JSON document.
void write_spans_json(std::ostream& out, const std::vector<Span>& spans);

/// Median (mean of the two middle values for an even count). Empty → 0.
[[nodiscard]] double median(std::vector<double> values);

/// Half width of the rank band quantile() averages over: a quarter of
/// the smaller tail, at most 2.5% (±2.5% at the median, ±0.25% at p99).
[[nodiscard]] inline double quantile_band(double q) {
  return std::min(0.025, std::min(q, 1.0 - q) / 4.0);
}

/// Smoothed q-quantile, q in [0, 1]: the mean of the order statistics
/// whose ranks lie within ±quantile_band(q)·n of rank q·n (at least one
/// sample). Steadier than a single order statistic, and not quantized to
/// the clock's resolution. Empty → 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Counts of nanosecond latencies in log-linear buckets: one bucket per
/// nanosecond below 2·kSub ns, then kSub buckets per power of two, so a
/// bucket is at most 1/kSub of its lower edge wide. Fixed size (7 KiB),
/// so recording costs no allocation and memory does not grow with the
/// number of samples. Values from 2³² ns up land in the last bucket.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (32 - kSubBits + 1) * kSub;

  void add(uint64_t ns) { ++counts_[bucket(ns)]; ++total_; }
  void merge(const LatencyHistogram& other);
  [[nodiscard]] uint64_t count() const { return total_; }
  /// The q-quantile, q in [0, 1], with the samples of a bucket taken as
  /// spread evenly over it: the value at rank q·count() of that spread.
  /// Continuous in the counts, so not quantized to bucket edges. Empty → 0.
  [[nodiscard]] double quantile(double q) const;

  /// Bucket of `ns`, and a bucket's lower edge and width.
  [[nodiscard]] static size_t bucket(uint64_t ns);
  [[nodiscard]] static uint64_t lower_edge(size_t bucket);
  [[nodiscard]] static uint64_t width(size_t bucket);

 private:
  std::array<uint32_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

/// 64-bit FNV-1a, fed field by field.
class Fnv1a {
 public:
  void bytes(const void* data, size_t size);
  void u64(uint64_t value) { bytes(&value, sizeof value); }
  /// Hashes the IEEE-754 bits, so -0.0 and 0.0 differ and the digest
  /// changes with the last bit of any statistic.
  void f64(double value);
  [[nodiscard]] uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Digest of a run's simulated statistics: mean response ratio,
/// completed and dispatched counts, events fired and the per-machine
/// dispatch fractions.
[[nodiscard]] uint64_t result_digest(const hs::cluster::SimulationResult& r);

/// True when the run accounts for every arrival exactly once:
/// arrivals = completed + shed + dropped + in flight at the end.
[[nodiscard]] bool conserves_jobs(const hs::cluster::SimulationResult& r);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
[[nodiscard]] std::string result_json(bool correct, uint64_t attempted,
                                      uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
