// Round-robin based job dispatching — the paper's Algorithm 2.
//
// Equalizes the number of system-level inter-arrival gaps between
// successive jobs sent to the same machine, smoothing each machine's
// arrival substream without measuring time. Each machine i carries
//   assign — jobs sent to it so far,
//   next   — expected number of future arrivals before its next job.
// A new job goes to the machine with minimal `next` (ties: smallest
// (assign+1)/αᵢ); the winner's `next` grows by 1/αᵢ and every machine
// that has started receiving jobs counts down by 1. The `next` guard
// value 1 staggers first assignments of small-fraction machines evenly
// through the cycle.
//
// With equal fractions this reduces to the classic round-robin; hence
// "Weighted Round-Robin" (WRR) with the simple weighted allocation and
// "Optimized Round-Robin" (ORR) with the optimized allocation.
//
// Engine: O(log k) per pick over the k machines with αᵢ > 0, with the
// pick sequence and every `next`/`assign` value bit-identical to the
// literal algorithm — a dense scan that decrements every started
// machine's `next` with `-= 1.0` on each arrival (kept as the reference
// in tests/smooth_rr_reference.h, which the differential tests replay).
// Each started machine sits in one of two sets:
//   lazy    — `next` in [0.5, 2^53], where x − 1 is exact, so the
//             countdown is one global arrival counter `now`: a machine
//             stores the value v it had at counter c and reads as
//             v − (now − c). An indexed min-heap orders these machines
//             by the exact sum v + c (an ExactSum pair), which orders
//             them by current value.
//   stepped — every other `next` (below 0.5 the subtraction can round),
//             counted down one `-= 1.0` at a time, as the literal
//             algorithm does. Selection drains the bottom of the range,
//             so this set holds a handful of machines.
// Below 64 active machines the lazy set stays unused and every started
// machine is stepped: that is the dense scan itself, the faster form at
// that size (the paper's 15-machine cluster).
// Never-started machines sit at exactly the guard value 1 and tie among
// themselves in a static order, 1/αᵢ ascending then index — a second
// heap. Excluded machines (αᵢ = 0) never start and never change, so
// they are left out entirely.
//
// The two smallest values decide a pick exactly as the dense scan's
// fast path does. When they are within the tie tolerance, only the
// machines within a few ε of the minimum can influence the ε-hysteresis
// tie scan, provided a gap separates them from the rest; the tie is then
// resolved over just those machines (or, when they are all never-
// started, read off the guard order). A full scan over materialized
// values remains as the exact fallback when no such gap exists.
//
// Threading: caller-serialized (dispatch/dispatcher.h) — every pick()
// advances the assign/next cadence state.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocation.h"
#include "dispatch/dispatcher.h"
#include "dispatch/min_heap.h"

namespace hs::dispatch {

class SmoothRoundRobinDispatcher final : public Dispatcher {
 public:
  explicit SmoothRoundRobinDispatcher(alloc::Allocation allocation);

  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  [[nodiscard]] size_t machine_count() const override {
    return allocation_.size();
  }
  bool rebuild_fractions(std::span<const double> fractions) override;

  /// Replace the allocation with an already-validated one — the
  /// fractions are copied bit-for-bit, with no renormalization — and
  /// rebuild the cadence state, reusing buffer capacity throughout
  /// (allocation-free at a fixed cluster size once warm).
  void rebuild(const alloc::Allocation& allocation);

  /// State inspection (for tests and the Figure 2 reproduction).
  /// Indexed by machine, like the allocation; excluded machines report
  /// assign 0 and the guard value 1.
  [[nodiscard]] uint64_t assigned(size_t machine) const;
  [[nodiscard]] double next_value(size_t machine) const;

  /// Picks since the last reset/rebuild/restore whose tie was resolved
  /// by the full O(k) scan (no gap isolated the tied machines).
  [[nodiscard]] uint64_t full_tie_scans() const { return full_tie_scans_; }

  /// Checkpoint: fractions plus the full cadence state (assign/next/
  /// started per machine), so a restored dispatcher continues the
  /// Algorithm 2 schedule bit-identically mid-cycle. 4n values,
  /// machine-indexed (excluded machines carry their invariant state).
  /// A restore is declined (returns 0, nothing changes) unless the
  /// fractions are a valid allocation and every machine is consistent:
  /// started exactly when assign > 0, and `next` at the guard value 1
  /// until started.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  enum class Set : uint8_t { kUnstarted, kLazy, kStepped };

  /// One active machine. `value` is its `next` — for a lazy machine, the
  /// `next` it had when the arrival counter read `stamp`.
  struct Slot {
    double value;
    uint64_t stamp;
    uint64_t assign;
    double inv_fraction;  // 1/αᵢ, computed once (exact reuse)
    uint32_t machine;
    Set set;
  };

  /// Re-derive the active slots from allocation_ and reset the cadence
  /// state. clear()+push_back reuses capacity, so repeated rebuilds at a
  /// fixed cluster size are allocation-free.
  void rebuild_dense();

  /// True when a started machine at `next` = value belongs in the lazy
  /// set.
  [[nodiscard]] bool lazy_range(double value) const;
  /// Current `next` of active machine i.
  [[nodiscard]] double value_of(size_t i) const;
  [[nodiscard]] double fraction_of(size_t i) const {
    return allocation_[slots_[i].machine];
  }
  /// File started machine i, not in the stepped set, under its current
  /// `next` value.
  void place(size_t i, double value);
  /// The never-started machine first in guard order.
  [[nodiscard]] size_t first_unstarted();
  /// Heap order for unstarted_: true when a comes after b in the guard
  /// order (1/αᵢ ascending, then index), so the heap top comes first.
  [[nodiscard]] auto later_guard() const {
    return [this](uint32_t a, uint32_t b) {
      const double fa = slots_[a].inv_fraction;
      const double fb = slots_[b].inv_fraction;
      return fa > fb || (fa == fb && a > b);
    };
  }
  /// Step 2.h after `select` was given `next` (steps 2.d–2.f): count
  /// every started machine down by one, then move lazy machines that
  /// dropped below the exact range into the stepped set.
  void count_down(size_t select, double next);
  /// Resolve a `next` tie (minimum `min_next`) exactly as the dense
  /// ε-hysteresis scan would. Returns an active index.
  [[nodiscard]] size_t pick_tied(double min_next);
  /// Steps 2.b–2.c over the active indices in candidates_, which are in
  /// ascending order.
  [[nodiscard]] size_t scan_ties() const;

  alloc::Allocation allocation_;
  /// Active machines in ascending machine order (so every first-seen tie
  /// rule matches a scan that skips excluded machines).
  std::vector<Slot> slots_;
  /// Whether the lazy set is in use (enough active machines, see
  /// kLazyMinActive); without it every started machine is stepped.
  bool lazy_on_ = false;
  std::vector<uint32_t> stepped_;       // members of the stepped set
  IndexedMinHeap<ExactSum> lazy_;       // keys value + stamp
  /// Heap over never-started machines in guard order; may still hold
  /// machines that have started since (see first_unstarted()).
  std::vector<uint32_t> unstarted_;
  size_t unstarted_count_ = 0;
  uint64_t now_ = 0;                    // arrivals since reset
  uint64_t full_tie_scans_ = 0;
  std::vector<uint32_t> candidates_;    // tie scan input
};

}  // namespace hs::dispatch
