// Circuit-breaking dispatching decorator.
//
// Sibling of dispatch::FaultAwareDispatcher: where that decorator
// consumes the fault layer's explicit crash/recovery reports, this one
// infers machine health from dispatch *outcomes*. A machine that keeps
// rejecting (bounded queue full) or losing (crashed but not yet
// reported) jobs trips its breaker Open after `trip_threshold`
// consecutive failures and is routed around through the same
// dispatch::SurvivorMask as the fault decorator — native masking for
// Least-Load-style dispatchers, in-place survivor reweighting for the
// static paper policies. After `cooldown` simulated seconds an Open
// breaker Half-Opens: the machine rejoins the routing set, and
// `probe_successes` consecutive accepted jobs close the breaker while a
// single failure re-opens it (restarting the cooldown).
//
//            trip_threshold consecutive failures
//   CLOSED ────────────────────────────────────────► OPEN
//     ▲                                                │ cooldown elapsed
//     │ probe_successes consecutive accepts            ▼
//     └──────────────────────────────────────────── HALF-OPEN
//                         (one failure: back to OPEN, cooldown restarts)
//
// When every breaker is open the decorator keeps the previous routing —
// jobs fail fast and feed the half-open probes (mirrors the fault
// decorator's all-down behavior). core::make_circuit_breaker_dispatcher
// wires the reweighter for the paper's policies; docs/FAULT_MODEL.md §6
// discusses the semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dispatch/decorator.h"
#include "dispatch/survivor_mask.h"
#include "obs/trace.h"

namespace hs::overload {

struct CircuitBreakerConfig {
  /// Consecutive rejections/losses on one machine that trip it Open.
  size_t trip_threshold = 5;
  /// Simulated seconds an Open breaker waits before Half-Opening.
  double cooldown = 30.0;
  /// Consecutive Half-Open accepts that Close the breaker.
  size_t probe_successes = 3;

  /// Throws util::CheckError on out-of-range fields.
  void validate() const;
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* breaker_state_name(BreakerState state);

class CircuitBreakerDispatcher final : public dispatch::DecoratorDispatcher {
 public:
  using Reweighter = dispatch::SurvivorMask::Reweighter;

  /// Native-masking mode: `inner` must accept set_available_mask.
  CircuitBreakerDispatcher(std::unique_ptr<dispatch::Dispatcher> inner,
                           const CircuitBreakerConfig& config);

  /// Reweighting mode for a fraction-driven `inner` (same contract as
  /// FaultAwareDispatcher's): trips and closes re-weight it in place
  /// with the fractions `reweighter` computes over the closed breakers.
  CircuitBreakerDispatcher(std::unique_ptr<dispatch::Dispatcher> inner,
                           const CircuitBreakerConfig& config,
                           Reweighter reweighter);

  [[nodiscard]] dispatch::Capabilities capabilities() const override {
    return inner().capabilities() | dispatch::kOverloadFeedback;
  }
  void reset() override;
  [[nodiscard]] std::string name() const override;

  /// Cooldown expiry is checked on arrivals.
  void on_arrival(double now) override;

  /// Dispatch outcomes drive the breakers, then are forwarded inward.
  void on_dispatch_result(size_t machine, bool accepted, double now) override;

  /// Also treat fault-layer crash reports as instant trips (a crashed
  /// machine should not wait for trip_threshold rejected probes), and
  /// recovery reports as instant Half-Opens (skip the remaining
  /// cooldown; the probe jobs confirm the recovery). The report is
  /// forwarded inward first.
  void on_machine_state_report(size_t machine, bool up) override;

  /// Native masking on behalf of an *outer* decorator (a fault layer or
  /// hedging wrapper stacked on top): the outer mask is ANDed with the
  /// breaker's own routable set before being pushed down, so
  /// Hedged/FaultAware/CircuitBreaker compose in any order. Always
  /// returns true.
  bool set_available_mask(const std::vector<bool>& available) override;

  /// Declined: in-place fractions from above would bypass open breakers.
  bool rebuild_fractions(std::span<const double> fractions) override {
    (void)fractions;
    return false;
  }

  /// Attach a trace sink for kBreakerOpen/kBreakerHalfOpen/kBreakerClose
  /// records (null detaches).
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Checkpoint: per-machine breaker records (state, failure/probe
  /// counters, reopen deadline) plus the reopen schedule, then the inner
  /// dispatcher's state — a stack serializes outside-in. A declined
  /// restore leaves the breakers and the inner dispatcher as they were.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  [[nodiscard]] BreakerState state(size_t machine) const;
  [[nodiscard]] size_t open_count() const;
  /// Breaker trips (Closed/Half-Open → Open) since construction/reset.
  [[nodiscard]] uint64_t trips() const { return trips_; }
  /// Survivor reweights since construction/reset (reweighting mode).
  [[nodiscard]] uint64_t rebuilds() const { return mask_.rebuilds(); }

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    size_t consecutive_failures = 0;
    size_t probe_successes = 0;
    double reopen_at = 0.0;  // when an Open breaker may Half-Open
  };

  void trip(size_t machine, double now);
  void transition(size_t machine, BreakerState to, double now);
  void maybe_half_open(double now);

  CircuitBreakerConfig config_;
  std::vector<Breaker> breakers_;
  dispatch::SurvivorMask mask_;  // own set: state != kOpen
  obs::TraceSink* trace_ = nullptr;
  // Earliest reopen_at over Open breakers (+inf when none are open):
  // lets on_arrival() skip the scan in the common all-closed case.
  double next_reopen_time_ = 0.0;
  double last_now_ = 0.0;  // most recent time seen through any hook
  uint64_t trips_ = 0;
};

}  // namespace hs::overload
