#include "ledger.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace perfbench {

int32_t SpanLog::open(std::string_view name) {
  if (!enabled_) {
    return -1;
  }
  const auto index = static_cast<int32_t>(spans_.size());
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = elapsed_ns(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return index;
}

void SpanLog::close(int32_t index, uint64_t count) {
  if (!enabled_) {
    return;
  }
  HS_CHECK(!open_.empty() && open_.back() == index,
           "span " << index << " closed out of order");
  open_.pop_back();
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = elapsed_ns(origin_, Clock::now());
  span.count = count;
}

std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) {
      continue;
    }
    const auto parent = static_cast<size_t>(span.parent);
    HS_CHECK(parent < spans.size(), "span parent " << parent << " out of range");
    const int64_t lo = std::max(span.start_ns, spans[parent].start_ns);
    const int64_t hi = std::min(span.end_ns, spans[parent].end_ns);
    if (hi > lo) {
      children[parent].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool in_run = false;
    for (const auto& [lo, hi] : intervals) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) {
        covered += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) {
      covered += run_hi - run_lo;
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::vector<NameTotal> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times(spans);
  std::map<std::string, NameTotal> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotal& total = by_name[spans[i].name];
    total.name = spans[i].name;
    ++total.spans;
    total.count += spans[i].count;
    total.total_ns += spans[i].duration_ns();
    total.self_ns += self[i];
  }
  std::vector<NameTotal> out;
  out.reserve(by_name.size());
  for (auto& [name, total] : by_name) {
    out.push_back(std::move(total));
  }
  return out;
}

namespace {

/// Span names are benchmark-chosen identifiers; escape the two
/// characters JSON requires anyway.
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void write_spans_json(std::ostream& out, const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times(spans);
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"count\": " << s.count
        << ", \"self_ns\": " << self[i] << "}";
  }
  out << "\n],\n\"totals\": [";
  const std::vector<NameTotal> totals = totals_by_name(spans);
  for (size_t i = 0; i < totals.size(); ++i) {
    const NameTotal& t = totals[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": " << json_string(t.name)
        << ", \"spans\": " << t.spans << ", \"count\": " << t.count
        << ", \"total_ns\": " << t.total_ns << ", \"self_ns\": " << t.self_ns
        << "}";
  }
  out << "\n]}\n";
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double quantile(std::vector<double> values, double q) {
  HS_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1], got " << q);
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double band = quantile_band(q);
  const auto n = static_cast<double>(values.size());
  const auto lo = static_cast<size_t>(
      std::clamp(std::floor((q - band) * n), 0.0, n - 1.0));
  const auto hi = static_cast<size_t>(
      std::clamp(std::ceil((q + band) * n), static_cast<double>(lo + 1), n));
  double total = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    total += values[i];
  }
  return total / static_cast<double>(hi - lo);
}

size_t LatencyHistogram::bucket(uint64_t ns) {
  if (ns < 2 * kSub) {
    return static_cast<size_t>(ns);
  }
  ns = std::min<uint64_t>(ns, (uint64_t{1} << 32) - 1);
  const int shift = std::bit_width(ns) - 1 - kSubBits;
  return static_cast<size_t>((static_cast<uint64_t>(shift) + 1) * kSub +
                             (ns >> shift) - kSub);
}

uint64_t LatencyHistogram::lower_edge(size_t bucket) {
  if (bucket < 2 * kSub) {
    return bucket;
  }
  const uint64_t shift = bucket / kSub - 1;
  return (bucket % kSub + kSub) << shift;
}

uint64_t LatencyHistogram::width(size_t bucket) {
  return bucket < 2 * kSub ? 1 : uint64_t{1} << (bucket / kSub - 1);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

double LatencyHistogram::quantile(double q) const {
  HS_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1], got " << q);
  if (total_ == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(total_);
  double below = 0.0;
  size_t last = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) {
      continue;
    }
    const auto here = static_cast<double>(counts_[b]);
    if (rank < below + here) {
      return static_cast<double>(lower_edge(b)) +
             static_cast<double>(width(b)) * (rank - below) / here;
    }
    below += here;
    last = b;
  }
  return static_cast<double>(lower_edge(last) + width(last));  // q = 1
}

void Fnv1a::bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ull;
  }
}

void Fnv1a::f64(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  u64(bits);
}

uint64_t result_digest(const hs::cluster::SimulationResult& r) {
  Fnv1a h;
  h.f64(r.mean_response_ratio);
  h.u64(r.completed_jobs);
  h.u64(r.dispatched_jobs);
  h.u64(r.events_fired);
  h.u64(r.machine_fractions.size());
  for (double fraction : r.machine_fractions) {
    h.f64(fraction);
  }
  return h.value();
}

bool conserves_jobs(const hs::cluster::SimulationResult& r) {
  return r.total_arrivals == r.total_completed + r.total_shed +
                                 r.total_dropped + r.in_flight_at_end;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    HS_CHECK(std::isfinite(m.value),
             "metric " << m.name << " is not finite: " << m.value);
    out << (i == 0 ? "" : ", ") << json_string(m.name)
        << ": {\"value\": " << m.value << ", \"unit\": " << json_string(m.unit)
        << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
