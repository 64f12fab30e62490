// Failure-aware dispatching decorator.
//
// Wraps any Dispatcher and consumes the fault layer's delayed machine
// crash/recovery reports (cluster/faults.h): machines reported down are
// blacklisted, and routing is restricted to the survivors until the
// recovery report arrives. The blacklist reaches the wrapped dispatcher
// through a SurvivorMask (dispatch/survivor_mask.h): natively for
// Least-Load, the adaptive ORRs and other masking decorators, or — for
// the static allocation-based dispatchers (WRAN/ORAN/WRR/ORR), which
// have no mask concept — by a Reweighter that recomputes the allocation
// over the survivors and reweights the dispatcher in place (e.g. the
// Algorithm-1 optimized allocation re-solved over the survivors —
// graceful ORR degradation).
//
// core::make_fault_aware_dispatcher() wires the right mode for the
// paper's policies; docs/FAULT_MODEL.md discusses the semantics.
//
// Threading: caller-serialized (dispatch/dispatcher.h) — picks forward
// to the inner dispatcher, and fault reports reweight or re-mask it, so
// no call may overlap another.
#pragma once

#include <memory>

#include "dispatch/decorator.h"
#include "dispatch/survivor_mask.h"

namespace hs::dispatch {

class FaultAwareDispatcher final : public DecoratorDispatcher {
 public:
  using Reweighter = SurvivorMask::Reweighter;

  /// Native-masking mode: `inner` must accept set_available_mask.
  explicit FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner);

  /// Reweighting mode for a fraction-driven `inner` (it must accept
  /// rebuild_fractions): fault transitions re-weight it in place with
  /// the fractions `reweighter` computes over the survivors. An inner
  /// dispatcher that masks natively ignores the reweighter.
  FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner,
                       Reweighter reweighter);

  [[nodiscard]] Capabilities capabilities() const override {
    return inner().capabilities() | kFaultFeedback;
  }
  void reset() override;
  [[nodiscard]] std::string name() const override;

  /// Consumes the report: the blacklist changes and the mask is re-
  /// applied; the wrapped dispatcher sees only the resulting mask.
  void on_machine_state_report(size_t machine, bool up) override;

  /// Native masking on behalf of an *outer* decorator (a circuit breaker
  /// or another fault layer stacked on top): the outer mask is ANDed
  /// with this decorator's own crash blacklist before being pushed down,
  /// so Hedged/FaultAware/CircuitBreaker compose in any order. Always
  /// returns true.
  bool set_available_mask(const std::vector<bool>& available) override;

  /// Declined: in-place fractions from above would bypass the blacklist.
  bool rebuild_fractions(std::span<const double> fractions) override {
    (void)fractions;
    return false;
  }

  /// Checkpoint: this layer's crash blacklist (n flags), then the inner
  /// dispatcher's state — a stack serializes outside-in. The outer mask
  /// is not saved: whoever imposed it re-imposes it on its own restore.
  /// A declined restore leaves the blacklist and the inner dispatcher as
  /// they were.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  /// Current availability as last reported (true = believed up).
  [[nodiscard]] const std::vector<bool>& available() const {
    return mask_.own();
  }
  [[nodiscard]] size_t down_count() const;
  /// Survivor reweights since construction/reset (reweighting mode
  /// only; native masking never reweights).
  [[nodiscard]] uint64_t rebuilds() const { return mask_.rebuilds(); }

 private:
  SurvivorMask mask_;
};

}  // namespace hs::dispatch
