// Survivor mask: the routing restriction shared by the two masking
// decorators (FaultAwareDispatcher, overload::CircuitBreakerDispatcher).
//
// Each decorator keeps its own per-machine routable set — the crash
// blacklist, the non-Open breakers — and an outer decorator may impose
// a further restriction through set_available_mask. This component ANDs
// the two and pushes the result into the wrapped dispatcher, in one of
// two modes chosen once at construction:
//
//  * Native masking — the wrapped dispatcher accepts set_available_mask
//    (Least-Load, the adaptive ORRs, or another masking decorator); its
//    learned state (queue estimates, the ρ̂ estimator) survives
//    transitions.
//  * Reweighting — the wrapped dispatcher is fraction-driven (the static
//    paper policies). A Reweighter computes the survivor allocation —
//    core::policy_masked_reweighter re-solves Algorithm 1 over the
//    survivors, the paper's graceful ORR degradation — and
//    rebuild_fractions applies it in place, allocation-free.
//
// With no machine left routable the reweighting mode keeps the previous
// routing: the jobs are lost or fail fast either way, and their retries
// and probe outcomes drive recovery. Threading: caller-serialized, like
// the decorator that owns it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dispatch/dispatcher.h"

namespace hs::dispatch {

class SurvivorMask {
 public:
  /// Writes survivor allocation fractions (full machine-index space,
  /// zeros for unavailable machines) into its output buffer.
  using Reweighter =
      std::function<void(const std::vector<bool>&, std::vector<double>&)>;

  /// Pushes the all-routable mask into `inner` (which must outlive this
  /// component). Throws util::CheckError when `inner` neither masks
  /// natively nor — given a reweighter — reweights in place.
  SurvivorMask(Dispatcher& inner, Reweighter reweighter);

  /// The owning decorator's routable set.
  [[nodiscard]] const std::vector<bool>& own() const { return own_; }
  /// Change one machine's own flag; call apply() after the last change.
  void set_own(size_t machine, bool routable) { own_[machine] = routable; }
  /// Replace the restriction imposed from above, then apply().
  void set_outer(const std::vector<bool>& outer);
  /// Push own AND outer into the wrapped dispatcher.
  void apply();
  /// Everything routable again; resets the wrapped dispatcher.
  void reset();

  /// Checkpoint restore: adopt `own`, push it down, then restore the
  /// wrapped dispatcher from `inner_state`. Returns the values it
  /// consumed, or nullopt when it declined — the wrapped dispatcher and
  /// this mask are then rolled back to their state before the call
  /// (the save/restore round trip is exact).
  std::optional<size_t> restore(const std::vector<bool>& own,
                                std::span<const double> inner_state);

  /// Survivor reweights since construction/reset (reweighting mode
  /// only; native masking never reweights).
  [[nodiscard]] uint64_t rebuilds() const { return rebuilds_; }

 private:
  Dispatcher& inner_;
  Reweighter reweighter_;
  std::vector<bool> own_;
  std::vector<bool> outer_;      // restriction imposed from above
  std::vector<bool> effective_;  // scratch: own_ AND outer_
  std::vector<double> fractions_scratch_;  // reweighter output buffer
  bool native_ = false;
  uint64_t rebuilds_ = 0;
};

}  // namespace hs::dispatch
