#include "dispatch/smooth_rr.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace hs::dispatch {

namespace {

/// Tolerance for `next` equality in the tie-break of step 2.c.3. The
/// paper compares exactly; `next` values are sums of 1/αᵢ increments and
/// integer decrements, so genuinely tied machines can differ by rounding
/// noise in floating point.
constexpr double kTieEps = 1e-9;

/// x − 1 is exact for every double x in [kLazyFloor, kLazyCeil]
/// (Sterbenz below 2, an integer step on a grid at most 1 wide above),
/// so d countdown steps from such a value collapse to one subtraction.
constexpr double kLazyFloor = 0.5;
constexpr double kLazyCeil = 0x1p53;

/// Bound on |next| for the isolated tie scan: below it one ulp is far
/// under kTieEps, so the scan's ε-comparisons round the way the real
/// numbers compare.
constexpr double kTieRange = 0x1p20;

/// Below this many active machines every started machine stays in the
/// stepped set: the engine is then the dense scan itself, which beats
/// the heap's bookkeeping on small clusters (the paper's 15 machines).
constexpr size_t kLazyMinActive = 64;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The smallest offered value with its machine, and the runner-up
/// counting multiplicity (an offered value equal to the minimum).
struct TwoSmallest {
  double min1 = kInf;
  double min2 = kInf;
  size_t arg = static_cast<size_t>(-1);

  // Written for conditional moves: which machine is minimal is
  // unpredictable, and a mispredict costs more than a small scan.
  void offer(size_t i, double value) {
    const bool below = value < min1;
    const double runner_up = value < min2 ? value : min2;
    min2 = below ? min1 : runner_up;
    arg = below ? i : arg;
    min1 = below ? value : min1;
  }
  void merge(const TwoSmallest& other) {
    offer(other.arg, other.min1);
    min2 = other.min2 < min2 ? other.min2 : min2;
  }
};

}  // namespace

SmoothRoundRobinDispatcher::SmoothRoundRobinDispatcher(
    alloc::Allocation allocation)
    : allocation_(std::move(allocation)) {
  rebuild_dense();
}

void SmoothRoundRobinDispatcher::rebuild_dense() {
  const size_t active = allocation_.active_count();
  HS_CHECK(active >= 1,
           "dispatcher needs at least one machine with positive fraction");
  HS_CHECK(allocation_.size() <= std::numeric_limits<uint32_t>::max(),
           "round-robin supports fewer than 2^32 machines");
  slots_.clear();
  slots_.reserve(active);
  for (size_t i = 0; i < allocation_.size(); ++i) {
    if (allocation_[i] == 0.0) {
      continue;
    }
    // 1/αᵢ is the same value every time it is computed from the same αᵢ,
    // so hoisting the division out of pick() changes nothing downstream.
    slots_.push_back({1.0, 0, 0, 1.0 / allocation_[i],
                      static_cast<uint32_t>(i), Set::kUnstarted});
  }
  lazy_on_ = active >= kLazyMinActive;
  // Sized once per rebuild so pick() never allocates.
  stepped_.reserve(active);
  candidates_.reserve(active);
  unstarted_.reserve(active);
  reset();
}

bool SmoothRoundRobinDispatcher::rebuild_fractions(
    std::span<const double> fractions) {
  HS_CHECK(fractions.size() == allocation_.size(),
           "rebuild_fractions size " << fractions.size()
                                     << " != machine count "
                                     << allocation_.size());
  allocation_.assign(fractions);
  rebuild_dense();
  return true;
}

void SmoothRoundRobinDispatcher::rebuild(const alloc::Allocation& allocation) {
  HS_CHECK(allocation.size() == allocation_.size(),
           "rebuild size " << allocation.size() << " != machine count "
                           << allocation_.size());
  allocation_ = allocation;
  rebuild_dense();
}

void SmoothRoundRobinDispatcher::reset() {
  // Step 1: assign = 0; next = 1 (the guard value that delays machines
  // with small fractions until a full cycle position opens for them).
  const size_t k = slots_.size();
  unstarted_.clear();
  for (size_t i = 0; i < k; ++i) {
    Slot& slot = slots_[i];
    slot.value = 1.0;
    slot.stamp = 0;
    slot.assign = 0;
    slot.set = Set::kUnstarted;
    unstarted_.push_back(static_cast<uint32_t>(i));
  }
  std::make_heap(unstarted_.begin(), unstarted_.end(), later_guard());
  unstarted_count_ = k;
  stepped_.clear();
  lazy_.reset(lazy_on_ ? k : 0);
  now_ = 0;
  full_tie_scans_ = 0;
}

double SmoothRoundRobinDispatcher::value_of(size_t i) const {
  const Slot& slot = slots_[i];
  if (slot.set == Set::kLazy) {
    return slot.value - static_cast<double>(now_ - slot.stamp);
  }
  return slot.value;
}

bool SmoothRoundRobinDispatcher::lazy_range(double value) const {
  return lazy_on_ && value >= kLazyFloor && value <= kLazyCeil;
}

void SmoothRoundRobinDispatcher::place(size_t i, double value) {
  Slot& slot = slots_[i];
  slot.value = value;
  if (lazy_range(value)) {
    const ExactSum key = ExactSum::of(value, static_cast<double>(now_));
    if (slot.set == Set::kLazy) {
      lazy_.update(i, key);
    } else {
      lazy_.push(i, key);
    }
    slot.set = Set::kLazy;
    slot.stamp = now_;
    return;
  }
  if (slot.set == Set::kLazy) {
    lazy_.erase(i);
  }
  slot.set = Set::kStepped;
  stepped_.push_back(static_cast<uint32_t>(i));
}

size_t SmoothRoundRobinDispatcher::first_unstarted() {
  // Started machines leave the heap lazily, when they surface.
  while (slots_[unstarted_.front()].set != Set::kUnstarted) {
    std::pop_heap(unstarted_.begin(), unstarted_.end(), later_guard());
    unstarted_.pop_back();
  }
  return unstarted_.front();
}

void SmoothRoundRobinDispatcher::count_down(size_t select, double next) {
  const bool select_stepped = slots_[select].set == Set::kStepped;
  if (select_stepped) {
    slots_[select].value = next;  // counted down with the rest below
  }
  ++now_;
  if (!lazy_on_) {
    for (const uint32_t i : stepped_) {
      slots_[i].value -= 1.0;
    }
  } else {
    // Backwards, so the swap-remove only moves visited members.
    for (size_t p = stepped_.size(); p-- > 0;) {
      const uint32_t i = stepped_[p];
      const double value = slots_[i].value - 1.0;
      slots_[i].value = value;
      if (lazy_range(value)) {
        stepped_[p] = stepped_.back();
        stepped_.pop_back();
        place(i, value);
      }
    }
  }
  if (!select_stepped) {
    // Filed before the sweep below reads the lazy minimum, which may
    // still be the selected machine under its old key.
    place(select, next - 1.0);
  }
  // Lazy machines all read >= kLazyFloor before this arrival, so the
  // ones now below it were reached by exact steps; from here on their
  // steps may round.
  while (!lazy_.empty()) {
    const size_t i = lazy_.top();
    const double value = value_of(i);
    if (value >= kLazyFloor) {
      return;
    }
    place(i, value);
  }
}

size_t SmoothRoundRobinDispatcher::pick(rng::Xoshiro256& /*gen*/) {
  // The smallest `next` (and its machine) and the runner-up, counting
  // multiplicity, over the three sets — the same two values the
  // literal scan finds, so the same tie test below. The stepped set is
  // scanned into two interleaved accumulators, halving the dependency
  // chain of the conditional moves.
  TwoSmallest best;
  TwoSmallest odd;
  const size_t stepped = stepped_.size();
  size_t p = 0;
  for (; p + 1 < stepped; p += 2) {
    best.offer(stepped_[p], slots_[stepped_[p]].value);
    odd.offer(stepped_[p + 1], slots_[stepped_[p + 1]].value);
  }
  if (p < stepped) {
    best.offer(stepped_[p], slots_[stepped_[p]].value);
  }
  best.merge(odd);
  if (!lazy_.empty()) {
    best.offer(lazy_.top(), value_of(lazy_.top()));
    const size_t second = lazy_.runner_up();
    if (second != IndexedMinHeap<ExactSum>::kNone) {
      best.offer(second, value_of(second));
    }
  }
  if (unstarted_count_ > 0) {
    const size_t first = first_unstarted();
    best.offer(first, 1.0);
    if (unstarted_count_ > 1) {
      best.offer(first, 1.0);  // only its value matters: it ties the first
    }
  }
  // When the runner-up is more than 2·kTieEps above the minimum, the
  // ε-hysteresis scan of steps 2.b–2.c provably selects that minimum:
  // whatever its running `min_next` holds on arrival (always some other
  // value, hence > m + 2ε), the minimum m undercuts it by more than ε,
  // and every later value is more than 2ε above m, so it neither beats
  // nor ties it.
  const size_t select =
      best.min2 - best.min1 > 2.0 * kTieEps ? best.arg : pick_tied(best.min1);

  // Step 2.d: a machine selected for the first time starts its regular
  // cadence from 0 rather than from the guard value. Steps 2.e–2.f: it
  // expects its next job after 1/α_select arrivals.
  const bool first_job = slots_[select].assign == 0;
  const double next =
      (first_job ? 0.0 : value_of(select)) + slots_[select].inv_fraction;
  if (first_job) {
    --unstarted_count_;  // leaves unstarted_ once its set changes below
  }
  slots_[select].assign += 1;
  // Step 2.h: one system arrival has been consumed — every started
  // machine counts down by 1, the selected one included.
  count_down(select, next);
  return slots_[select].machine;
}

size_t SmoothRoundRobinDispatcher::pick_tied(double min_next) {
  // Machines more than 2ε above every value in [min_next, top] neither
  // tie with nor undercut any of them, and the first of them in scan
  // order undercuts any such machine seen before it — so when a gap of
  // 2ε separates the values up to top from the rest, the full scan
  // selects what a scan over just those machines selects. The window is
  // wider than the tie tolerance so that the gap usually exists.
  const double limit = min_next + 4.0 * kTieEps;
  double top = min_next;  // largest value within the window
  double above = kInf;    // smallest value past it
  candidates_.clear();
  const auto consider = [&](size_t i, double value) {
    if (value <= limit) {
      candidates_.push_back(static_cast<uint32_t>(i));
      top = std::max(top, value);
    } else {
      above = std::min(above, value);
    }
  };
  for (const uint32_t i : stepped_) {
    consider(i, slots_[i].value);
  }
  // Lazy value <= limit ⇔ value + stamp <= limit + now, exactly.
  const size_t past = lazy_.visit_at_most(
      ExactSum::of(limit, static_cast<double>(now_)),
      [&](size_t i) { consider(i, value_of(i)); });
  if (past != IndexedMinHeap<ExactSum>::kNone) {
    above = std::min(above, value_of(past));
  }
  const bool unstarted_tie = unstarted_count_ > 0 && 1.0 <= limit;
  if (unstarted_tie) {
    top = std::max(top, 1.0);
  } else if (unstarted_count_ > 0) {
    above = std::min(above, 1.0);
  }
  // A computed gap >= 3ε is a real gap >= 2ε (rounding is monotone).
  const bool isolated = min_next >= -kTieRange && top <= kTieRange &&
                        above - top >= 3.0 * kTieEps;
  if (isolated && candidates_.empty()) {
    // Only never-started machines tie, all at exactly 1: the first one
    // scanned sets the anchor, and each later one displaces the
    // selection only with a strictly smaller (0+1)/αᵢ = 1/αᵢ.
    return first_unstarted();
  }
  if (isolated && !unstarted_tie) {
    std::sort(candidates_.begin(), candidates_.end());
    return scan_ties();
  }
  ++full_tie_scans_;
  candidates_.clear();
  for (size_t i = 0; i < slots_.size(); ++i) {
    candidates_.push_back(static_cast<uint32_t>(i));
  }
  return scan_ties();
}

size_t SmoothRoundRobinDispatcher::scan_ties() const {
  // Steps 2.b–2.c: select the machine with minimal `next`; on ties the
  // one with the smallest normalized assignment count (assign+1)/αᵢ.
  //
  // Tie-break refinement: a machine that has never received a job (still
  // at the guard value) wins a `next` tie against machines that have.
  // In steady state started machines are selected at next == 0, strictly
  // below the guard, so this only matters at the boundary where a
  // small-fraction machine's staggered first slot opens; without the
  // preference, a large-fraction machine re-selected at next == 1 would
  // steal that slot and the cycle would not spread first jobs out evenly
  // as §3.2 describes (the paper's worked example — fractions
  // {1/8, 1/8, 1/4, 1/2} → c4 c3 c4 c2 c4 c3 c4 c1 — requires it).
  // The normalized assignment count (assign+1)/αᵢ is only consulted on
  // ties, so its division is computed lazily.
  size_t select = kNone;
  double min_next = 0.0;
  double nor_assign = 0.0;  // valid only while nor_known
  bool nor_known = false;
  bool select_unstarted = false;
  for (const uint32_t i : candidates_) {
    const double next = value_of(i);
    if (select == kNone || next < min_next - kTieEps) {
      min_next = next;
      select = i;
      select_unstarted = slots_[i].assign == 0;
      nor_known = false;
    } else if (std::fabs(next - min_next) <= kTieEps) {
      if (!nor_known) {
        nor_assign =
            static_cast<double>(slots_[select].assign + 1) /
            fraction_of(select);
        nor_known = true;
      }
      const double candidate_nor =
          static_cast<double>(slots_[i].assign + 1) / fraction_of(i);
      const bool candidate_unstarted = slots_[i].assign == 0;
      const bool better =
          (candidate_unstarted && !select_unstarted) ||
          (candidate_unstarted == select_unstarted &&
           nor_assign > candidate_nor);
      if (better) {
        nor_assign = candidate_nor;
        select = i;
        select_unstarted = candidate_unstarted;
      }
    }
  }
  HS_CHECK(select != kNone, "no selectable machine");
  return select;
}

uint64_t SmoothRoundRobinDispatcher::assigned(size_t machine) const {
  HS_CHECK(machine < allocation_.size(),
           "machine index out of range: " << machine);
  for (const Slot& slot : slots_) {
    if (slot.machine == machine) {
      return slot.assign;
    }
  }
  return 0;  // excluded machines never receive jobs
}

double SmoothRoundRobinDispatcher::next_value(size_t machine) const {
  HS_CHECK(machine < allocation_.size(),
           "machine index out of range: " << machine);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].machine == machine) {
      return value_of(i);
    }
  }
  return 1.0;  // excluded machines stay at the guard value forever
}

size_t SmoothRoundRobinDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = allocation_.size();
  const auto& f = allocation_.fractions();
  out.insert(out.end(), f.begin(), f.end());
  const size_t base = out.size();
  out.resize(base + 3 * n);
  double* assign = out.data() + base;
  double* next = assign + n;
  double* started = next + n;
  // Machine-indexed layout: excluded machines hold their invariant
  // state (assign 0, the guard value 1, not started).
  for (size_t m = 0; m < n; ++m) {
    assign[m] = 0.0;
    next[m] = 1.0;
    started[m] = 0.0;
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    const size_t m = slots_[i].machine;
    assign[m] = static_cast<double>(slots_[i].assign);
    next[m] = value_of(i);
    started[m] = slots_[i].assign > 0 ? 1.0 : 0.0;
  }
  return 4 * n;
}

size_t SmoothRoundRobinDispatcher::restore_state(
    std::span<const double> state) {
  const size_t n = allocation_.size();
  if (state.size() < 4 * n || !alloc::Allocation::restorable(state.first(n))) {
    return 0;
  }
  // Validate before mutating anything: a failed restore must leave the
  // dispatcher unchanged. Counts must be exact non-negative integers
  // below 2^53 (they round-trip through doubles losslessly there);
  // `next` must be finite; `started` must be the 0/1 flag assign > 0;
  // a machine that has not started still holds the guard value.
  const double* assign = state.data() + n;
  const double* next = assign + n;
  const double* started = next + n;
  for (size_t i = 0; i < n; ++i) {
    const double a = assign[i];
    if (!(a >= 0.0 && a <= 0x1p53) || a != std::floor(a) ||
        !std::isfinite(next[i]) ||
        !(started[i] == (a > 0.0 ? 1.0 : 0.0)) ||
        !(a > 0.0 || next[i] == 1.0)) {
      return 0;
    }
  }
  allocation_.assign_exact(state.first(n));
  rebuild_dense();
  for (size_t i = 0; i < slots_.size(); ++i) {
    const size_t m = slots_[i].machine;
    if (assign[m] > 0.0) {
      slots_[i].assign = static_cast<uint64_t>(assign[m]);
      --unstarted_count_;
      place(i, next[m]);
    }
  }
  return 4 * n;
}

}  // namespace hs::dispatch
