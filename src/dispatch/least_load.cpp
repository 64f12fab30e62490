#include "dispatch/least_load.h"

#include <cmath>

#include "util/check.h"

namespace hs::dispatch {

LeastLoadDispatcher::LeastLoadDispatcher(std::vector<double> speeds,
                                         LeastLoadEngine engine)
    : engine_(engine),
      speeds_(std::move(speeds)),
      estimates_(speeds_.size(), 0),
      available_(speeds_.size(), true),
      available_count_(speeds_.size()) {
  HS_CHECK(!speeds_.empty(), "least-load needs at least one machine");
  for (double s : speeds_) {
    HS_CHECK(s > 0.0, "machine speed must be positive, got " << s);
  }
  if (engine_ == LeastLoadEngine::kTree) {
    tree_.assign(speeds_.size());
    reload_tree();
  }
}

void LeastLoadDispatcher::reset() {
  estimates_.assign(speeds_.size(), 0);
  available_.assign(speeds_.size(), true);
  available_count_ = speeds_.size();
  if (engine_ == LeastLoadEngine::kTree) {
    reload_tree();
  }
}

double LeastLoadDispatcher::leaf_key(size_t i) const {
  if (available_count_ > 0 && !available_[i]) {
    return MinLoadTree::kInfinity;  // blacklisted by the fault layer
  }
  // Identical expression to the scan engine — bit-identical keys.
  return static_cast<double>(estimates_[i] + 1) / speeds_[i];
}

void LeastLoadDispatcher::reload_tree() {
  for (size_t i = 0; i < speeds_.size(); ++i) {
    tree_.set_key_silent(i, leaf_key(i));
  }
  tree_.rebuild();
}

void LeastLoadDispatcher::touch(size_t i) {
  if (engine_ == LeastLoadEngine::kTree) {
    tree_.set_key(i, leaf_key(i));
  }
}

size_t LeastLoadDispatcher::pick(rng::Xoshiro256& /*gen*/) {
  if (engine_ == LeastLoadEngine::kScan) {
    return pick_scan();
  }
  // Leaf keys already encode the availability regime, so the root winner
  // is the lowest-index minimum over exactly the scan's candidate set.
  const size_t best = tree_.argmin();
  // The job is dispatched and not rescheduled, so the scheduler updates
  // the target's load index immediately (§4.2).
  ++estimates_[best];
  tree_.set_key(best, leaf_key(best));
  return best;
}

size_t LeastLoadDispatcher::pick_scan() {
  const bool any_available = available_count_ > 0;
  size_t best = speeds_.size();
  double best_load = 0.0;
  for (size_t i = 0; i < speeds_.size(); ++i) {
    if (any_available && !available_[i]) {
      continue;  // blacklisted by the fault layer
    }
    const double load =
        static_cast<double>(estimates_[i] + 1) / speeds_[i];
    if (best == speeds_.size() || load < best_load) {
      best_load = load;
      best = i;
    }
  }
  ++estimates_[best];
  return best;
}

size_t LeastLoadDispatcher::pick_hedge(rng::Xoshiro256& /*gen*/,
                                       double /*size*/, size_t exclude) {
  if (engine_ == LeastLoadEngine::kScan) {
    return pick_hedge_scan(exclude);
  }
  const size_t excluded_available = available_[exclude] ? 1 : 0;
  if (available_count_ - excluded_available == 0) {
    return exclude;  // no second choice — the caller skips the hedge
  }
  // Temporarily knock the primary's leaf out with the sentinel; some
  // other available machine holds a finite key, so it cannot win.
  tree_.set_key(exclude, MinLoadTree::kInfinity);
  const size_t best = tree_.argmin();
  ++estimates_[best];
  tree_.set_key(best, leaf_key(best));
  tree_.set_key(exclude, leaf_key(exclude));
  return best;
}

size_t LeastLoadDispatcher::pick_hedge_scan(size_t exclude) {
  const size_t excluded_available = available_[exclude] ? 1 : 0;
  if (available_count_ - excluded_available == 0) {
    return exclude;  // no second choice — the caller skips the hedge
  }
  size_t best = speeds_.size();
  double best_load = 0.0;
  for (size_t i = 0; i < speeds_.size(); ++i) {
    if (i == exclude || !available_[i]) {
      continue;
    }
    const double load =
        static_cast<double>(estimates_[i] + 1) / speeds_[i];
    if (best == speeds_.size() || load < best_load) {
      best_load = load;
      best = i;
    }
  }
  ++estimates_[best];
  return best;
}

void LeastLoadDispatcher::on_departure_report(size_t machine, double now,
                                              double work) {
  (void)now;
  (void)work;
  HS_CHECK(machine < estimates_.size(),
           "machine index out of range: " << machine);
  // Reports only ever follow dispatches, so the estimate stays >= 0 —
  // except that a crash report zeroes the estimate, and an in-flight
  // departure report for a job that completed just before the crash may
  // still arrive afterwards. Such stale reports are dropped.
  if (estimates_[machine] > 0) {
    --estimates_[machine];
    touch(machine);
  }
}

void LeastLoadDispatcher::on_load_report(size_t machine,
                                         uint64_t queue_length) {
  HS_CHECK(machine < estimates_.size(),
           "machine index out of range: " << machine);
  // Snapshots carry the machine's true resident count as of the sample
  // instant; adopting it wholesale both corrects accumulated drift and
  // *introduces* the staleness under study — everything dispatched after
  // the sample was taken vanishes from the view until the next snapshot.
  estimates_[machine] = queue_length;
  touch(machine);
}

bool LeastLoadDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  HS_CHECK(available.size() == speeds_.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << speeds_.size());
  size_t count = 0;
  for (size_t i = 0; i < speeds_.size(); ++i) {
    if (available_[i] && !available[i]) {
      // Newly reported down: its resident jobs died with it, so the
      // pending-departure estimate is void.
      estimates_[i] = 0;
    }
    count += available[i] ? 1 : 0;
  }
  available_ = available;
  available_count_ = count;
  if (engine_ == LeastLoadEngine::kTree) {
    // The regime (masked vs all-masked fallback) can flip every key, so
    // repair the whole tree in one O(n) pass — mask changes are rare.
    reload_tree();
  }
  return true;
}

uint64_t LeastLoadDispatcher::estimated_queue(size_t machine) const {
  HS_CHECK(machine < estimates_.size(),
           "machine index out of range: " << machine);
  return estimates_[machine];
}

size_t LeastLoadDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = speeds_.size();
  out.reserve(out.size() + 2 * n);
  for (uint64_t e : estimates_) {
    out.push_back(static_cast<double>(e));
  }
  for (size_t i = 0; i < n; ++i) {
    out.push_back(available_[i] ? 1.0 : 0.0);
  }
  return 2 * n;
}

size_t LeastLoadDispatcher::restore_state(std::span<const double> state) {
  const size_t n = speeds_.size();
  if (state.size() < 2 * n) {
    return 0;
  }
  // Validate before mutating: estimates must be exact non-negative
  // integers below 2^53, availability flags exactly 0 or 1.
  for (size_t i = 0; i < n; ++i) {
    const double e = state[i];
    const double a = state[n + i];
    if (!(e >= 0.0 && e <= 0x1p53) || e != std::floor(e) ||
        !(a == 0.0 || a == 1.0)) {
      return 0;
    }
  }
  available_count_ = 0;
  for (size_t i = 0; i < n; ++i) {
    estimates_[i] = static_cast<uint64_t>(state[i]);
    available_[i] = state[n + i] == 1.0;
    available_count_ += available_[i] ? 1 : 0;
  }
  if (engine_ == LeastLoadEngine::kTree) {
    reload_tree();
  }
  return 2 * n;
}

}  // namespace hs::dispatch
