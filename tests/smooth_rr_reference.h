// Reference implementation of Algorithm 2 for the differential tests:
// the literal dense O(k) form — the argmin scan with its 2·kTieEps fast
// path, the ε-hysteresis tie scan, and the step 2.h loop that
// decrements every started machine's `next` with `-= 1.0` on every
// arrival. It defines the goldens' pick sequences; the O(log k) engine
// in SmoothRoundRobinDispatcher must reproduce its picks and every
// `next`/`assign` value bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "dispatch/min_heap.h"
#include "util/check.h"

namespace hs::testing {

class ReferenceSmoothRr {
 public:
  explicit ReferenceSmoothRr(alloc::Allocation allocation)
      : allocation_(std::move(allocation)) {
    rebuild_dense();
  }

  void reset() {
    assign_.assign(machine_of_.size(), 0);
    next_.assign(machine_of_.size(), 1.0);
    started_.assign(machine_of_.size(), 0.0);
  }

  void rebuild_fractions(std::span<const double> fractions) {
    allocation_.assign(fractions);
    rebuild_dense();
  }

  /// The checkpoint layout: fractions, then machine-indexed assign,
  /// next and started (4n values).
  void save_state(std::vector<double>& out) const {
    const size_t n = allocation_.size();
    const auto& f = allocation_.fractions();
    out.insert(out.end(), f.begin(), f.end());
    const size_t base = out.size();
    out.resize(base + 3 * n);
    double* assign = out.data() + base;
    double* next = assign + n;
    double* started = next + n;
    for (size_t i = 0; i < n; ++i) {
      assign[i] = 0.0;
      next[i] = 1.0;
      started[i] = 0.0;
    }
    for (size_t k = 0; k < machine_of_.size(); ++k) {
      const size_t m = machine_of_[k];
      assign[m] = static_cast<double>(assign_[k]);
      next[m] = next_[k];
      started[m] = started_[k];
    }
  }

  /// Inverse of save_state() for a valid checkpoint.
  void restore_state(std::span<const double> state) {
    const size_t n = allocation_.size();
    const double* assign = state.data() + n;
    const double* next = assign + n;
    const double* started = next + n;
    allocation_.assign_exact(state.first(n));
    rebuild_dense();
    for (size_t k = 0; k < machine_of_.size(); ++k) {
      const size_t m = machine_of_[k];
      assign_[k] = static_cast<uint64_t>(assign[m]);
      next_[k] = next[m];
      started_[k] = started[m];
    }
  }

  /// Decrements so far whose `-= 1.0` rounded (counted, not changed).
  [[nodiscard]] uint64_t inexact_steps() const { return inexact_steps_; }

  size_t pick() {
    const size_t n = next_.size();
    const double* nx = next_.data();
    // Fast path: find the first strict minimum and the runner-up with
    // plain compares. When the runner-up is more than 2·kTieEps above the
    // minimum, the ε-hysteresis scan of pick_tied() provably selects
    // exactly that first minimum: whatever its running `min_next` holds on
    // arrival (always some already-seen value, hence > m + 2ε), the
    // minimum m satisfies m < min_next − ε and takes over; every later
    // value v has v − m > 2ε, so it neither beats nor ties it. Ties among
    // non-minimal prefix values never update `min_next`, so they cannot
    // change the outcome. This skips all tie-break work on the
    // (overwhelmingly common) tie-free pick.
    //
    // The scans run two interleaved accumulators updated by conditional
    // moves: which machine is minimal is uniformly random as far as the
    // branch predictor is concerned, and per-element mispredicts cost more
    // than the whole scan; the split halves the cmp/cmov dependency chain.
    // Splitting is exact — a min over doubles does not depend on
    // evaluation order — and the strict `<` keeps the first occurrence as
    // arg-min within each half. Across halves an exact duplicate of the
    // minimum could make the combine pick the later occurrence, but a
    // duplicated minimum always routes to pick_tied() below (min2 == min1),
    // which re-derives the selection from scratch.
    // Each accumulator tracks (smallest, its index, second smallest) over
    // its half in one pass; a new minimum demotes the old one to the
    // runner-up slot. "Second smallest" counts multiplicity, which is the
    // semantics the tie test below needs: a duplicated minimum — anywhere —
    // surfaces as min2 == min1.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double min_a = kInf, min_b = kInf;
    double sec_a = kInf, sec_b = kInf;
    size_t arg_a = 0, arg_b = 0;
    size_t i = 0;
    for (; i + 1 < n; i += 2) {
      const double va = nx[i];
      const double vb = nx[i + 1];
      const bool la = va < min_a;
      const bool lb = vb < min_b;
      const double da = va < sec_a ? va : sec_a;  // runner-up if not a new min
      const double db = vb < sec_b ? vb : sec_b;
      sec_a = la ? min_a : da;
      sec_b = lb ? min_b : db;
      min_a = la ? va : min_a;
      arg_a = la ? i : arg_a;
      min_b = lb ? vb : min_b;
      arg_b = lb ? i + 1 : arg_b;
    }
    if (i < n) {
      const double va = nx[i];
      const bool la = va < min_a;
      const double da = va < sec_a ? va : sec_a;
      sec_a = la ? min_a : da;
      min_a = la ? va : min_a;
      arg_a = la ? i : arg_a;
    }
    // Combine: the overall minimum is min(min_a, min_b); the overall
    // runner-up is the smallest of the loser's minimum and both halves'
    // runner-ups. Strict `<` keeps the first occurrence as arg-min within
    // a half; across halves an exact duplicate makes min2 == min1 and
    // routes to pick_tied(), so the combine order cannot matter.
    const bool b_wins = min_b < min_a;
    const double min1 = b_wins ? min_b : min_a;
    const size_t arg_min = b_wins ? arg_b : arg_a;
    const double loser = b_wins ? min_a : min_b;
    const double sec = sec_b < sec_a ? sec_b : sec_a;
    const double min2 = loser < sec ? loser : sec;

    const size_t select =
        min2 - min1 > 2.0 * kTieEps ? arg_min : pick_tied();

    // Step 2.d: a machine selected for the first time starts its regular
    // cadence from 0 rather than from the guard value.
    if (assign_[select] == 0) {
      next_[select] = 0.0;
      started_[select] = 1.0;
    }
    // Steps 2.e–2.f: it expects its next job after 1/α_select arrivals.
    next_[select] += inv_fraction_[select];
    assign_[select] += 1;
    // Step 2.h: one system arrival has been consumed — count down every
    // machine that has started receiving jobs (`started_` is 0.0 for the
    // rest, and subtracting 0.0 is exact).
    double* nxm = next_.data();
    const double* st = started_.data();
    for (size_t k = 0; k < n; ++k) {
      if (st[k] != 0.0 && dispatch::ExactSum::of(nxm[k], -1.0).lo != 0.0) {
        ++inexact_steps_;
      }
      nxm[k] -= st[k];
    }
    return machine_of_[select];
  }

 private:
  size_t pick_tied() const {
    const size_t n = next_.size();
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
    // ties, so its division is computed lazily. The dense iteration visits
    // exactly the machines a sparse scan would (ascending machine order,
    // excluded machines skipped), so every first-seen rule resolves
    // identically.
    size_t select = kNone;
    double min_next = 0.0;
    double nor_assign = 0.0;  // valid only while nor_known
    bool nor_known = false;
    bool select_unstarted = false;
    for (size_t i = 0; i < n; ++i) {
      if (select == kNone || next_[i] < min_next - kTieEps) {
        min_next = next_[i];
        select = i;
        select_unstarted = assign_[i] == 0;
        nor_known = false;
      } else if (std::fabs(next_[i] - min_next) <= kTieEps) {
        if (!nor_known) {
          nor_assign =
              static_cast<double>(assign_[select] + 1) / fraction_of_[select];
          nor_known = true;
        }
        const double candidate_nor =
            static_cast<double>(assign_[i] + 1) / fraction_of_[i];
        const bool candidate_unstarted = assign_[i] == 0;
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

  static constexpr size_t kNone = static_cast<size_t>(-1);
  static constexpr double kTieEps = 1e-9;

  void rebuild_dense() {
    HS_CHECK(allocation_.active_count() >= 1,
             "dispatcher needs at least one machine with positive fraction");
    machine_of_.clear();
    fraction_of_.clear();
    inv_fraction_.clear();
    for (size_t i = 0; i < allocation_.size(); ++i) {
      if (allocation_[i] == 0.0) {
        continue;
      }
      machine_of_.push_back(i);
      fraction_of_.push_back(allocation_[i]);
      inv_fraction_.push_back(1.0 / allocation_[i]);
    }
    reset();
  }

  alloc::Allocation allocation_;
  std::vector<size_t> machine_of_;
  std::vector<double> fraction_of_;
  std::vector<double> inv_fraction_;
  std::vector<uint64_t> assign_;
  std::vector<double> next_;
  std::vector<double> started_;
  uint64_t inexact_steps_ = 0;
};

}  // namespace hs::testing
