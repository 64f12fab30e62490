// Tests of the benchmark's bookkeeping: span self times on hand-built
// span trees, the median, quantile and histogram helpers, and the run
// digest.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

using perfbench::Span;

Span span(const char* name, int64_t start, int64_t end, int32_t parent,
          uint64_t count = 0) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.count = count;
  return s;
}

TEST(PerfbenchLedger, SelfTimeLeafAndNested) {
  // root [0,100) ← a [10,30) ← a1 [12,20)
  //              ← b [40,90)
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("a", 10, 30, 0),
                                   span("a1", 12, 20, 1),
                                   span("b", 40, 90, 0)};
  const auto self = perfbench::self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 50);
}

TEST(PerfbenchLedger, SelfTimeOverlappingChildrenCountOnce) {
  // Children [10,50) and [30,70) overlap on [30,50): coverage is 60.
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("c", 10, 50, 0),
                                   span("c", 30, 70, 0)};
  EXPECT_EQ(perfbench::self_times(spans)[0], 40);
}

TEST(PerfbenchLedger, SelfTimeChildClippedToParent) {
  // A child that outlives its parent only covers the parent's part.
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("late", 80, 130, 0)};
  EXPECT_EQ(perfbench::self_times(spans)[0], 80);
}

TEST(PerfbenchLedger, SelfTimeAdjacentChildren) {
  const std::vector<Span> spans = {span("root", 0, 10, -1),
                                   span("x", 0, 5, 0), span("y", 5, 10, 0)};
  EXPECT_EQ(perfbench::self_times(spans)[0], 0);
}

TEST(PerfbenchLedger, TotalsByName) {
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("pick", 10, 20, 0, 4),
                                   span("pick", 30, 50, 0, 6)};
  const auto totals = perfbench::totals_by_name(spans);
  EXPECT_EQ(totals.size(), size_t{2});
  EXPECT_EQ(totals[0].name, std::string("pick"));
  EXPECT_EQ(totals[0].spans, uint64_t{2});
  EXPECT_EQ(totals[0].count, uint64_t{10});
  EXPECT_EQ(totals[0].total_ns, int64_t{30});
  EXPECT_EQ(totals[0].self_ns, int64_t{30});
  EXPECT_EQ(totals[1].self_ns, int64_t{70});
}

TEST(PerfbenchLedger, SpanLogNesting) {
  perfbench::SpanLog log(true);
  {
    perfbench::ScopedSpan outer(log, "outer");
    {
      perfbench::ScopedSpan inner(log, "inner");
      inner.set_count(3);
    }
  }
  EXPECT_EQ(log.spans().size(), size_t{2});
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].count, uint64_t{3});
  EXPECT_TRUE(log.spans()[0].start_ns <= log.spans()[1].start_ns);
  EXPECT_TRUE(log.spans()[1].end_ns <= log.spans()[0].end_ns);

  perfbench::SpanLog off(false);
  {
    perfbench::ScopedSpan ignored(off, "x");
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(PerfbenchLedger, SpansJsonListsEverySpan) {
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("a\"b", 10, 30, 0)};
  std::ostringstream out;
  perfbench::write_spans_json(out, spans);
  const std::string text = out.str();
  EXPECT_TRUE(text.find("\"a\\\"b\"") != std::string::npos);
  EXPECT_TRUE(text.find("\"self_ns\": 80") != std::string::npos);
}

TEST(PerfbenchLedger, Median) {
  EXPECT_EQ(perfbench::median({}), 0.0);
  EXPECT_EQ(perfbench::median({7.0}), 7.0);
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(perfbench::median({5.0, 5.0, 1.0, 9.0}), 5.0);
}

TEST(PerfbenchLedger, Quantile) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(999 - i);  // 0..999, reversed
  }
  EXPECT_EQ(perfbench::quantile_band(0.5), 0.025);
  EXPECT_TRUE(std::abs(perfbench::quantile_band(0.99) - 0.0025) < 1e-15);
  // Median: ranks [475, 525), the mean of 475..524.
  EXPECT_EQ(perfbench::quantile(values, 0.50), 499.5);
  // p99: ranks [987, 993).
  EXPECT_EQ(perfbench::quantile(values, 0.99), 989.5);
  EXPECT_EQ(perfbench::quantile(values, 0.25), 249.5);
  // The extremes have no band: exactly the minimum and maximum.
  EXPECT_EQ(perfbench::quantile(values, 1.0), 999.0);
  EXPECT_EQ(perfbench::quantile(values, 0.0), 0.0);
  EXPECT_EQ(perfbench::quantile({}, 0.5), 0.0);
  EXPECT_EQ(perfbench::quantile({4.0}, 0.99), 4.0);
  // Small samples still average at least one order statistic.
  EXPECT_EQ(perfbench::quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(PerfbenchLedger, FnvKnownVectors) {
  perfbench::Fnv1a empty;
  EXPECT_EQ(empty.value(), uint64_t{0xcbf29ce484222325ull});
  perfbench::Fnv1a a;
  a.bytes("a", 1);
  EXPECT_EQ(a.value(), uint64_t{0xaf63dc4c8601ec8cull});
  perfbench::Fnv1a foobar;
  foobar.bytes("foobar", 6);
  EXPECT_EQ(foobar.value(), uint64_t{0x85944171f73967e8ull});
}

hs::cluster::SimulationResult sample_result() {
  hs::cluster::SimulationResult r;
  r.mean_response_ratio = 3.25;
  r.completed_jobs = 1000;
  r.dispatched_jobs = 1001;
  r.events_fired = 5000;
  r.machine_fractions = {0.25, 0.75};
  return r;
}

TEST(PerfbenchLedger, DigestCoversEachField) {
  const auto base = sample_result();
  const uint64_t d = perfbench::result_digest(base);
  EXPECT_EQ(perfbench::result_digest(sample_result()), d);

  auto r = sample_result();
  r.mean_response_ratio = std::nextafter(3.25, 4.0);
  EXPECT_NE(perfbench::result_digest(r), d);
  r = sample_result();
  r.completed_jobs += 1;
  EXPECT_NE(perfbench::result_digest(r), d);
  r = sample_result();
  r.dispatched_jobs += 1;
  EXPECT_NE(perfbench::result_digest(r), d);
  r = sample_result();
  r.events_fired += 1;
  EXPECT_NE(perfbench::result_digest(r), d);
  r = sample_result();
  r.machine_fractions = {0.75, 0.25};
  EXPECT_NE(perfbench::result_digest(r), d);
  r = sample_result();
  r.machine_fractions.push_back(0.0);
  EXPECT_NE(perfbench::result_digest(r), d);

  // Statistics outside the digest do not move it.
  r = sample_result();
  r.response_ratio_p99 = 123.0;
  EXPECT_EQ(perfbench::result_digest(r), d);

  // Bits, not values: -0.0 and 0.0 digest differently.
  auto zero = sample_result();
  zero.mean_response_ratio = 0.0;
  auto negative_zero = sample_result();
  negative_zero.mean_response_ratio = -0.0;
  EXPECT_TRUE(perfbench::result_digest(zero) !=
              perfbench::result_digest(negative_zero));
}

TEST(PerfbenchLedger, Conservation) {
  hs::cluster::SimulationResult r;
  r.total_arrivals = 10;
  r.total_completed = 6;
  r.total_shed = 1;
  r.total_dropped = 2;
  r.in_flight_at_end = 1;
  EXPECT_TRUE(perfbench::conserves_jobs(r));
  r.in_flight_at_end = 0;
  EXPECT_TRUE(!perfbench::conserves_jobs(r));
}

TEST(PerfbenchLedger, ResultJson) {
  const std::string line = perfbench::result_json(
      true, 3, 0, {{"jobs_per_s", 1.5, "1/s"}, {"setup_s", 0.25, "s"}});
  EXPECT_EQ(line, std::string("{\"correct\": true, \"attempted\": 3, "
                              "\"failed\": 0, \"metrics\": {\"jobs_per_s\": "
                              "{\"value\": 1.5, \"unit\": \"1/s\"}, "
                              "\"setup_s\": {\"value\": 0.25, \"unit\": "
                              "\"s\"}}}"));
}

TEST(PerfbenchLedger, HistogramBucketsAreContiguous) {
  using perfbench::LatencyHistogram;
  // Exact below 2·kSub, then each bucket starts where the previous ends.
  for (uint64_t ns = 0; ns < 2 * LatencyHistogram::kSub; ++ns) {
    EXPECT_EQ(LatencyHistogram::bucket(ns), ns);
  }
  for (size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::lower_edge(b),
              LatencyHistogram::lower_edge(b - 1) +
                  LatencyHistogram::width(b - 1));
    const uint64_t lo = LatencyHistogram::lower_edge(b);
    EXPECT_EQ(LatencyHistogram::bucket(lo), b);
    EXPECT_EQ(LatencyHistogram::bucket(lo + LatencyHistogram::width(b) - 1), b);
    // Relative width at most 1/kSub of the lower edge.
    EXPECT_LE(LatencyHistogram::width(b) * LatencyHistogram::kSub,
              std::max<uint64_t>(lo, LatencyHistogram::kSub));
  }
  EXPECT_EQ(LatencyHistogram::bucket(uint64_t{1} << 40),
            LatencyHistogram::kBuckets - 1);
}

TEST(PerfbenchLedger, HistogramQuantileInterpolates) {
  perfbench::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  // 100 samples at 10 ns: all in the one-wide bucket [10, 11).
  for (int i = 0; i < 100; ++i) {
    h.add(10);
  }
  EXPECT_EQ(h.count(), uint64_t{100});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 11.0);
  // 100 more in [1024, 1040): the median is the edge between them, and
  // p75 lies halfway through the upper bucket.
  for (int i = 0; i < 100; ++i) {
    h.add(1030);
  }
  EXPECT_EQ(perfbench::LatencyHistogram::width(
                perfbench::LatencyHistogram::bucket(1030)),
            uint64_t{16});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1024.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 1032.0);
}

TEST(PerfbenchLedger, HistogramMergeAddsCounts) {
  perfbench::LatencyHistogram a;
  perfbench::LatencyHistogram b;
  std::vector<double> values;
  for (uint64_t i = 1; i <= 1000; ++i) {
    (i % 2 == 0 ? a : b).add(i * 37);
    values.push_back(static_cast<double>(i * 37));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), uint64_t{1000});
  // Within a bucket width (≤ 1/64) of the exact quantile.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = perfbench::quantile(values, q);
    EXPECT_NEAR(a.quantile(q), exact, exact / 64.0 + 37.0);
  }
}

}  // namespace
