// Open-addressed hash table keyed by 64-bit ids.
//
// The simulator tracks per-job state by job id on its hottest
// bookkeeping paths (the asynchronous dispatch path's in-flight copies,
// the synchronous path's job → scheduler map) and the choice hook keeps
// its overrides by packed target. A node-based std::unordered_map
// allocates on every insert; this table stores entries inline in one
// power-of-two array:
//
//   * linear probing from a Fibonacci hash of the id, so sequential job
//     ids spread evenly;
//   * backward-shift deletion — no tombstones, so probe lengths do not
//     decay under insert/erase churn;
//   * growth by doubling at half load, never shrinking, so once a run
//     reaches its working set, inserts and erases allocate nothing. An
//     empty table owns no memory at all.
//
// Entries move on insert (growth) and erase (backward shift): a pointer
// returned by find() or insert() stays valid only until the next insert
// or erase. The id ~0 is reserved as the empty-slot marker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hs::util {

template <typename Value>
class IdTable {
 public:
  /// Reserved id that marks an empty slot.
  static constexpr uint64_t kNoId = ~uint64_t{0};

  struct Entry {
    uint64_t id = kNoId;
    Value value{};
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots currently allocated (0 until the first insert).
  [[nodiscard]] size_t capacity() const { return slots_.size(); }

  /// The entry for `id`, or null.
  [[nodiscard]] Entry* find(uint64_t id) {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = home(id);; i = (i + 1) & mask_) {
      Entry& slot = slots_[i];
      if (slot.id == id) {
        return &slot;
      }
      if (slot.id == kNoId) {
        return nullptr;
      }
    }
  }
  [[nodiscard]] const Entry* find(uint64_t id) const {
    return const_cast<IdTable*>(this)->find(id);
  }

  /// The value for `id`, default-constructed and inserted if absent.
  Value& operator[](uint64_t id) { return insert(id).value; }

  /// The entry for `id`, inserting a default-constructed value if absent.
  Entry& insert(uint64_t id) {
    HS_CHECK(id != kNoId, "id " << id << " is reserved");
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    for (size_t i = home(id);; i = (i + 1) & mask_) {
      Entry& slot = slots_[i];
      if (slot.id == id) {
        return slot;
      }
      if (slot.id == kNoId) {
        slot.id = id;
        slot.value = Value{};
        ++size_;
        return slot;
      }
    }
  }

  /// Erase the entry for `id`; false when there was none.
  bool erase(uint64_t id) {
    Entry* entry = find(id);
    if (entry == nullptr) {
      return false;
    }
    erase(entry);
    return true;
  }

  /// Erase an entry returned by find() or insert().
  void erase(Entry* entry) {
    size_t hole = static_cast<size_t>(entry - slots_.data());
    // Backward shift: pull each later entry of the probe run into the
    // hole unless its home slot lies cyclically in (hole, i], where it
    // would no longer be reachable from its home.
    for (size_t i = (hole + 1) & mask_; slots_[i].id != kNoId;
         i = (i + 1) & mask_) {
      const size_t distance_from_home = (i - home(slots_[i].id)) & mask_;
      const size_t distance_from_hole = (i - hole) & mask_;
      if (distance_from_home >= distance_from_hole) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole].id = kNoId;
    --size_;
  }

  /// The slot where `id`'s probe run starts (needs capacity() > 0).
  [[nodiscard]] size_t home(uint64_t id) const {
    return static_cast<size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Call fn(id, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& slot : slots_) {
      if (slot.id != kNoId) {
        fn(slot.id, slot.value);
      }
    }
  }

 private:
  static constexpr size_t kInitialSlots = 16;

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    const size_t slots = old.empty() ? kInitialSlots : 2 * old.size();
    slots_.assign(slots, Entry{});
    mask_ = slots - 1;
    shift_ = 64;
    for (size_t s = slots; s > 1; s >>= 1) {
      --shift_;
    }
    for (Entry& entry : old) {
      if (entry.id == kNoId) {
        continue;
      }
      size_t i = home(entry.id);
      while (slots_[i].id != kNoId) {
        i = (i + 1) & mask_;
      }
      slots_[i] = std::move(entry);
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace hs::util
