// Indexed binary min-heap — the O(log n) argmin engine behind Algorithm 2
// (SmoothRoundRobinDispatcher) at large n.
//
// Holds a subset of the items 0..n−1, each with a key, and supports
// push, erase and key updates of any item by id, the minimum and the
// runner-up (second smallest, counting equal keys) in O(1), and a walk
// over every item at or below a bound. Entries carry their keys inline
// and the entry array only grows as items are pushed, so an empty heap
// over n items touches O(n) memory for the id → position map alone —
// Algorithm 2 builds one per dispatcher and starts it empty.
//
// Equal keys are ordered arbitrarily (but deterministically); callers
// that need a tie rule resolve ties themselves.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace hs::dispatch {

/// The exact real number hi + lo of an error-free sum a + b (Knuth's
/// TwoSum): hi = fl(a + b) and lo the rounding error, so ordering the
/// (hi, lo) pairs lexicographically orders the exact sums. hi is the
/// rounded sum and rounding is monotone, so hi₁ < hi₂ implies the exact
/// sums are ordered the same way, and equal hi leaves lo to decide.
struct ExactSum {
  double hi;
  double lo;

  [[nodiscard]] static ExactSum of(double a, double b) {
    const double hi = a + b;
    const double b_virtual = hi - a;
    const double a_virtual = hi - b_virtual;
    return {hi, (a - a_virtual) + (b - b_virtual)};
  }
  friend auto operator<=>(const ExactSum&, const ExactSum&) = default;
};

template <typename Key>
class IndexedMinHeap {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Empty the heap and admit ids 0..n−1. Reuses buffer capacity, and
  /// reserves room for all n so later pushes never allocate.
  void reset(size_t n) {
    HS_CHECK(n < kAbsent, "indexed heap supports fewer than 2^32 items");
    entries_.clear();
    entries_.reserve(n);
    pos_.assign(n, kAbsent);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// The item with the smallest key; the heap must not be empty.
  [[nodiscard]] size_t top() const { return entries_[0].id; }

  /// An item whose key is the smallest once top() is set aside, or
  /// kNone with fewer than two items. Every other entry descends from
  /// one of the root's children, so one of them holds it.
  [[nodiscard]] size_t runner_up() const {
    if (entries_.size() < 2) {
      return kNone;
    }
    if (entries_.size() == 2 || entries_[1].key <= entries_[2].key) {
      return entries_[1].id;
    }
    return entries_[2].id;
  }

  void push(size_t id, const Key& key) {
    entries_.push_back({key, static_cast<uint32_t>(id)});
    sift_up(entries_.size() - 1);
  }

  /// Change the key of a contained item.
  void update(size_t id, const Key& key) {
    const size_t p = pos_[id];
    const bool up = key < entries_[p].key;
    entries_[p].key = key;
    if (up) {
      sift_up(p);
    } else {
      sift_down(p);
    }
  }

  void erase(size_t id) {
    const size_t p = pos_[id];
    pos_[id] = kAbsent;
    const Entry last = entries_.back();
    entries_.pop_back();
    if (p == entries_.size()) {
      return;
    }
    const bool up = last.key < entries_[p].key;
    place(p, last);
    if (up) {
      sift_up(p);
    } else {
      sift_down(p);
    }
  }

  /// Call visit(id) for every item whose key is <= bound, in no
  /// particular order, and return an item with the smallest key above
  /// bound (kNone if there is none). Children never sort below their
  /// parent, so the walk stops at the first entry above bound on each
  /// path: O(r + 1) entries examined beyond the r visited.
  template <typename Visit>
  size_t visit_at_most(const Key& bound, Visit&& visit) const {
    size_t above = kNone;
    visit_from(0, bound, visit, above);
    return above;
  }

 private:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  struct Entry {
    Key key;
    uint32_t id;
  };

  void place(size_t p, const Entry& entry) {
    entries_[p] = entry;
    pos_[entry.id] = static_cast<uint32_t>(p);
  }

  void sift_up(size_t p) {
    const Entry entry = entries_[p];
    while (p > 0) {
      const size_t parent = (p - 1) / 2;
      if (!(entry.key < entries_[parent].key)) {
        break;
      }
      place(p, entries_[parent]);
      p = parent;
    }
    place(p, entry);
  }

  void sift_down(size_t p) {
    const Entry entry = entries_[p];
    const size_t n = entries_.size();
    for (;;) {
      size_t child = 2 * p + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && entries_[child + 1].key < entries_[child].key) {
        ++child;
      }
      if (!(entries_[child].key < entry.key)) {
        break;
      }
      place(p, entries_[child]);
      p = child;
    }
    place(p, entry);
  }

  template <typename Visit>
  void visit_from(size_t p, const Key& bound, Visit& visit,
                  size_t& above) const {
    if (p >= entries_.size()) {
      return;
    }
    const Entry& entry = entries_[p];
    if (!(entry.key <= bound)) {
      if (above == kNone || entry.key < entries_[pos_[above]].key) {
        above = entry.id;
      }
      return;
    }
    visit(entry.id);
    visit_from(2 * p + 1, bound, visit, above);
    visit_from(2 * p + 2, bound, visit, above);
  }

  std::vector<Entry> entries_;  // the heap, entries_[0] smallest
  std::vector<uint32_t> pos_;   // id -> index into entries_, or kAbsent
};

}  // namespace hs::dispatch
