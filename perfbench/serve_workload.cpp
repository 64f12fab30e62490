// The serve workload: ServingDispatcher over Least-Load at n = 10⁴,
// driven closed-loop by two client threads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "rng/rng.h"
#include "util/check.h"
#include "workload/spec.h"

namespace perfbench {

namespace {

using hs::serving::ServingDispatcher;
using hs::serving::ServingStatus;

constexpr size_t kClients = 2;
/// Requests each client holds; every release is a feedback write beside
/// each acquire's pick.
constexpr size_t kOutstanding = 8;
/// Every kSampleEvery-th acquire is timed individually, into a
/// fixed-size histogram per client and window, so the benchmark's own
/// memory does not grow with throughput or run length.
constexpr uint64_t kSampleEvery = 8;
/// The run is cut into windows; each end-to-end figure is the median
/// over windows of that window's figure, so a short host disturbance
/// moves one window, not the result.
constexpr double kWindowSeconds = 0.5;
/// Segments of an untraced run; see run_serve_workload.
constexpr uint64_t kSegments = 8;
/// Mean client-side work per request (preparing it, using the reply),
/// exponentially distributed. Without it the two clients saturate the
/// dispatch spinlock, and the saturated loop is bistable on a shared
/// 4-core host: identical runs settle at either ~1.0M or ~1.55M pairs/s,
/// with p99 anywhere in 2–18 µs. A fixed work time lets the clients fall
/// into lockstep, which makes the contended tail bimodal instead.
constexpr double kClientWorkNs = 1000.0;
/// Client 0's administrative cadences, in its own acquire count.
constexpr uint64_t kTickEvery = 1024;
constexpr uint64_t kSnapshotEvery = 1 << 16;
constexpr size_t kRequestRing = 4096;

/// One generated request: its job size and the client work around it.
struct Request {
  double size = 0.0;
  Clock::duration work{};
};

/// One client's counts. Window `windows` (one past the last) takes what
/// the client does between the end of the last window and its stop.
struct ClientResult {
  explicit ClientResult(size_t windows)
      : pairs_per_window(windows + 1), latency(windows + 1) {}
  uint64_t calls = 0;
  uint64_t bad = 0;
  std::vector<uint64_t> pairs_per_window;
  std::vector<LatencyHistogram> latency;  // sampled acquires per window
};

/// One closed-loop client: release the oldest held request, acquire a
/// new one, until `stop`. Client 0 also ticks and snapshots.
void client_loop(ServingDispatcher& serving,
                 const std::vector<Request>& requests,
                 bool admin, const std::atomic<bool>& go,
                 const std::atomic<uint32_t>& window,
                 const std::atomic<bool>& stop, ClientResult& out) {
  struct Held {
    size_t machine = 0;
    double size = 0.0;
  };
  Held held[kOutstanding];
  while (!go.load(std::memory_order_acquire)) {
  }
  uint64_t i = 0;
  uint32_t w = 0;
  const auto acquire = [&](double size, Held& slot) {
    size_t machine = 0;
    ServingStatus status;
    if (i % kSampleEvery == 0) {
      const Clock::time_point t0 = Clock::now();
      status = serving.try_acquire(size, machine);
      out.latency[w].add(static_cast<uint64_t>(elapsed_ns(t0, Clock::now())));
    } else {
      status = serving.try_acquire(size, machine);
    }
    out.bad += status != ServingStatus::kOk;
    slot = {machine, size};
    ++out.calls;
  };
  for (Held& slot : held) {
    acquire(requests[i % kRequestRing].size, slot);
    ++i;
  }
  while (!stop.load(std::memory_order_relaxed)) {
    const Request& request = requests[i % kRequestRing];
    const Clock::time_point work_done = Clock::now() + request.work;
    while (Clock::now() < work_done) {
    }
    w = window.load(std::memory_order_relaxed);
    Held& slot = held[i % kOutstanding];
    out.bad += serving.release(slot.machine, slot.size) != ServingStatus::kOk;
    acquire(request.size, slot);
    out.calls += 1;
    ++out.pairs_per_window[w];
    ++i;
    if (admin && i % kTickEvery == 0) {
      serving.tick();
      ++out.calls;
      if (i % kSnapshotEvery == 0) {
        (void)serving.capture_snapshot();
        ++out.calls;
      }
    }
  }
  for (const Held& slot : held) {
    out.bad += serving.release(slot.machine, slot.size) != ServingStatus::kOk;
    ++out.calls;
  }
}

/// Each window's figures, over one or more closed-loop segments.
struct WindowFigures {
  std::vector<double> pairs_per_s;
  std::vector<double> acquire_p50_ns;
  std::vector<double> acquire_p99_ns;
  uint64_t timed_acquires = 0;
};

/// Run the closed loop for `seconds` on a fresh stack and wrapper,
/// append each window's figures to `out`, and check every call's status
/// and conservation at the end.
void closed_loop(const Shape& shape, uint64_t seed, double seconds,
                 Report& report, WindowFigures& out) {
  auto stack = build_stack(shape.policies[0], shape.speeds, false);
  ServingDispatcher serving(*stack, serve_config(seed));

  const auto size_model =
      hs::workload::WorkloadSpec::paper_default().make_size_model();
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds));
  std::vector<std::vector<Request>> requests(kClients);
  std::vector<ClientResult> results(kClients, ClientResult(windows));
  for (size_t c = 0; c < kClients; ++c) {
    hs::rng::Xoshiro256 gen(hs::rng::derive_seed(seed, c, 0x51e5));
    requests[c].resize(kRequestRing);
    for (Request& r : requests[c]) {
      r.size = size_model.sample(gen);
      r.work = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::nano>(
              -kClientWorkNs * std::log(gen.next_double_open0())));
    }
  }

  std::atomic<bool> go{false};
  std::atomic<uint32_t> window{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(client_loop, std::ref(serving),
                         std::cref(requests[c]),
                         c == 0, std::cref(go), std::cref(window),
                         std::cref(stop), std::ref(results[c]));
  }
  std::vector<double> window_seconds(windows);
  Clock::time_point mark = Clock::now();
  const Clock::time_point start = mark;
  go.store(true, std::memory_order_release);
  for (size_t w = 0; w < windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>((w + 1) * kWindowSeconds)));
    const Clock::time_point now = Clock::now();
    window.store(static_cast<uint32_t>(w + 1), std::memory_order_relaxed);
    window_seconds[w] = std::chrono::duration<double>(now - mark).count();
    mark = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) {
    t.join();
  }

  uint64_t calls = 0;
  uint64_t bad = 0;
  for (const ClientResult& r : results) {
    calls += r.calls;
    bad += r.bad;
  }
  report.attempt(calls);
  if (bad != 0) {
    report.fail("serving calls returned a status other than kOk", bad);
  }
  if (serving.acquired() != serving.released() || serving.in_flight() != 0) {
    report.attempt();
    report.fail("serving ended with " + std::to_string(serving.acquired()) +
                " acquires, " + std::to_string(serving.released()) +
                " releases");
  }

  for (size_t w = 0; w < windows; ++w) {
    uint64_t pairs = 0;
    LatencyHistogram latency;
    for (const ClientResult& r : results) {
      pairs += r.pairs_per_window[w];
      latency.merge(r.latency[w]);
    }
    out.pairs_per_s.push_back(static_cast<double>(pairs) / window_seconds[w]);
    if (latency.count() != 0) {
      out.acquire_p50_ns.push_back(latency.quantile(0.50));
      out.acquire_p99_ns.push_back(latency.quantile(0.99));
      out.timed_acquires += latency.count();
    }
  }
}

}  // namespace

hs::serving::ServingConfig serve_config(uint64_t seed) {
  hs::serving::ServingConfig config;
  config.seed = hs::rng::derive_seed(seed, 0, hs::rng::Stream::kDispatch);
  config.record_capacity = size_t{1} << 18;
  // Release deadlines armed on every acquire; closed-loop clients release
  // within microseconds, so detection stays on without firing.
  config.health.release_deadline = 5.0;
  return config;
}

int run_serve_workload(const Options& options) {
  const Shape shape = make_shape(options.workload, options.seed);
  Report report;
  if (options.trace) {
    SpanLog log(true);
    {
      ScopedSpan root(log, "bench.serve");
      const double seconds = std::min(options.seconds / 2.0, 3.0);
      WindowFigures plain;
      closed_loop(shape, options.seed, seconds, report, plain);
      WindowFigures traced;
      {
        ScopedSpan span(log, "serving.closed_loop");
        closed_loop(shape, options.seed, seconds, report, traced);
      }
      const double plain_rate = median(plain.pairs_per_s);
      const double traced_rate = median(traced.pairs_per_s);
      Report::note("trace serve_ops_per_s untraced", plain_rate, "1/s");
      Report::note("trace serve_ops_per_s traced", traced_rate, "1/s");
      report.metric("trace.overhead_ratio", plain_rate / traced_rate, "ratio");
      // The simulation-side rows come from simulating the served stack:
      // the same policy over the same machines.
      const DigestTable digests = load_digests(options.digests_path);
      const SimLedger sim = traced_round(options, shape, digests, log, report);
      report_layer_ledger(shape, options.seed, sim, log, report,
                          options.spans_path.empty()
                              ? "perfbench-snapshot.hssnap"
                              : options.spans_path + ".hssnap");
    }
    finish_spans(log, options.spans_path);
  } else {
    // The run is cut into segments, each on a fresh stack and wrapper,
    // with a set-up slice before each while no client runs.
    struct Served {
      std::unique_ptr<hs::dispatch::Dispatcher> stack;
      std::unique_ptr<ServingDispatcher> serving;
    };
    SetupSampler setup;
    WindowFigures figures;
    for (uint64_t segment = 0; segment < kSegments; ++segment) {
      setup.sample(
          [&] {
            Served served;
            served.stack = build_stack(shape.policies[0], shape.speeds, false);
            served.serving = std::make_unique<ServingDispatcher>(
                *served.stack, serve_config(options.seed));
            return served;
          },
          kSetupSliceSeconds);
      closed_loop(shape, round_seed(options.seed, segment),
                  options.seconds / static_cast<double>(kSegments), report,
                  figures);
    }
    const double pairs_per_s = median(figures.pairs_per_s);
    const double p50 = median(figures.acquire_p50_ns);
    const double p99 = median(figures.acquire_p99_ns);
    const std::string n =
        "medians over " + std::to_string(figures.pairs_per_s.size()) +
        " windows in " + std::to_string(kSegments) + " segments; n=" +
        std::to_string(figures.timed_acquires) + " timed acquires";
    Report::note("serve_ops_per_s", pairs_per_s, "1/s",
                 std::to_string(kClients) + " closed-loop clients, " + n);
    Report::note("acquire_p50_ns", p50, "ns", n);
    Report::note("acquire_p99_ns", p99, "ns", n);
    Report::note("error_rate",
                 static_cast<double>(report.failed()) /
                     static_cast<double>(report.attempted()),
                 "ratio", std::to_string(report.attempted()) + " calls");
    Report::note("setup samples", static_cast<double>(setup.samples()), "");
    report.metric("jobs_per_s", pairs_per_s, "1/s");
    report.metric("latency_p50_ns", p50, "ns");
    report.metric("latency_p99_ns", p99, "ns");
    report.metric("setup_s", setup.median_s(), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  const bool correct = report.failed() == 0;
  std::cout << result_json(correct, report.attempted(), report.failed(),
                           report.metrics())
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
