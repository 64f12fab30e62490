// Dynamic Least-Load dispatching (§2.2, §4.2) — the dynamic yardstick.
//
// The central scheduler tracks an estimate q̂ᵢ of each machine's run
// queue length. An arriving job goes to the machine with the least
// normalized load (q̂ᵢ + 1)/sᵢ; the estimate is incremented immediately
// (no rescheduling is allowed, so the scheduler knows the job is there).
// Departures are learned asynchronously: the cluster harness delivers
// on_departure_report() after the paper's detection delay (U(0,1) s) plus
// message transfer delay (exponential, mean 0.05 s), so the estimates lag
// reality exactly as in the paper's model.
//
// Two argmin engines produce bit-identical pick sequences. The default
// tournament tree (min_tree.h) answers each pick in O(log n) — estimate
// bumps, departure/load reports and hedge exclusion are O(log n) leaf
// updates, mask flips an O(n) rebuild — which keeps Least-Load usable at
// n = 10⁵–10⁶ machines. The O(n) linear scan is retained as the
// reference implementation for the randomized differential test
// (tests/test_least_load.cpp); both are pinned by the same golden tests.
//
// Threading: caller-serialized (dispatch/dispatcher.h) — pick() bumps
// the chosen machine's queue estimate, and the asynchronous feedback
// channels (on_departure_report, on_load_report) write the same state.
#pragma once

#include <cstdint>
#include <vector>

#include "dispatch/dispatcher.h"
#include "dispatch/min_tree.h"

namespace hs::dispatch {

/// Which argmin engine backs LeastLoadDispatcher. Both are bit-identical;
/// kScan exists as the reference for differential testing.
enum class LeastLoadEngine {
  kTree,  // O(log n) tournament tree (default)
  kScan,  // O(n) linear scan (reference)
};

class LeastLoadDispatcher final : public Dispatcher {
 public:
  explicit LeastLoadDispatcher(std::vector<double> speeds,
                               LeastLoadEngine engine = LeastLoadEngine::kTree);

  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;

  /// Second-least-loaded available machine (skipping `exclude`), with
  /// the estimate bumped exactly like pick() — the hedge copy really is
  /// headed there. Returns `exclude` when it is the only candidate, in
  /// which case the caller skips the hedge and no estimate moves.
  [[nodiscard]] size_t pick_hedge(rng::Xoshiro256& gen, double size,
                                  size_t exclude) override;

  void reset() override;
  [[nodiscard]] std::string name() const override { return "least-load"; }
  [[nodiscard]] size_t machine_count() const override {
    return speeds_.size();
  }

  /// Counts the departure against `machine`'s estimate (time and work
  /// are not needed).
  void on_departure_report(size_t machine, double now, double work) override;
  [[nodiscard]] Capabilities capabilities() const override {
    return kDepartureFeedback;
  }

  /// Stale snapshot (uncertainty staleness model): replace the estimate
  /// with the reported queue length. Between snapshots the dispatcher
  /// still increments on its own dispatches, so it routes on "snapshot
  /// plus what I sent since" — a view up to Δ + d seconds old.
  void on_load_report(size_t machine, uint64_t queue_length) override;

  /// Native fault-layer blacklist: masked machines are skipped by pick()
  /// (unless every machine is masked, in which case all are considered —
  /// jobs must go somewhere, and the fault layer will lose and retry
  /// them). A machine transitioning to unavailable has its queue estimate
  /// zeroed: its jobs were lost in the crash, and the departure reports
  /// that would have drained the estimate will never arrive.
  bool set_available_mask(const std::vector<bool>& available) override;

  /// Scheduler-side queue length estimate for a machine.
  [[nodiscard]] uint64_t estimated_queue(size_t machine) const;

  /// Checkpoint: queue estimates plus the availability mask (both engines
  /// rebuild their argmin structure from these). 2n values.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  [[nodiscard]] LeastLoadEngine engine() const { return engine_; }

 private:
  [[nodiscard]] size_t pick_scan();
  [[nodiscard]] size_t pick_hedge_scan(size_t exclude);

  /// Tree key for machine i under the current availability regime:
  /// +inf for masked machines while any machine is available, otherwise
  /// the normalized load (q̂ᵢ + 1)/sᵢ.
  [[nodiscard]] double leaf_key(size_t i) const;
  /// Reload every leaf and rebuild winners: O(n), used on reset and mask
  /// flips (the regime can change every key at once).
  void reload_tree();
  /// Repair machine i's leaf after an estimate change: O(log n).
  void touch(size_t i);

  LeastLoadEngine engine_;
  std::vector<double> speeds_;
  std::vector<uint64_t> estimates_;
  std::vector<bool> available_;
  size_t available_count_ = 0;
  MinLoadTree tree_;  // engaged only under kTree
};

}  // namespace hs::dispatch
