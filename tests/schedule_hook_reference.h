// Reference ScheduleHook for the differential tests: the literal
// map-based form — one hash map from packed (kind, entity) to its
// consult count, probed on every consult, and one from packed
// (kind, entity, occurrence) to the override's value bits. It defines
// what a schedule does to a run; explore::ScheduleHook's dense counters
// must reproduce every returned value, applied() and sites() exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "cluster/choice.h"
#include "explore/hook.h"
#include "explore/schedule.h"

namespace hs::testing {

class ReferenceScheduleHook : public cluster::ChoiceHook {
 public:
  explicit ReferenceScheduleHook(const explore::Schedule& schedule) {
    schedule.validate();
    for (const explore::Override& op : schedule.ops) {
      overrides_.emplace(target_key(op.kind, op.entity, op.occurrence),
                         op.value_bits);
    }
  }

  bool on_bool(cluster::ChoiceKind kind, uint32_t entity,
               bool drawn) override {
    const uint64_t* bits = consult(kind, entity);
    return bits == nullptr ? drawn : *bits != 0;
  }

  double on_double(cluster::ChoiceKind kind, uint32_t entity,
                   double drawn) override {
    const uint64_t* bits = consult(kind, entity);
    if (bits == nullptr) {
      return drawn;
    }
    double value = 0.0;
    std::memcpy(&value, bits, sizeof(value));
    return value;
  }

  [[nodiscard]] uint64_t applied() const { return applied_; }

  [[nodiscard]] std::vector<explore::ScheduleHook::Site> sites() const {
    std::vector<explore::ScheduleHook::Site> sites;
    for (const auto& [key, count] : consults_) {
      sites.push_back({static_cast<cluster::ChoiceKind>(key >> 32),
                       static_cast<uint32_t>(key & 0xffffffffu), count});
    }
    std::sort(sites.begin(), sites.end(), [](const auto& a, const auto& b) {
      return a.kind != b.kind ? a.kind < b.kind : a.entity < b.entity;
    });
    return sites;
  }

 private:
  static uint64_t target_key(cluster::ChoiceKind kind, uint32_t entity,
                             uint64_t occurrence) {
    return (static_cast<uint64_t>(kind) << 48) |
           (static_cast<uint64_t>(entity) << 24) | occurrence;
  }

  const uint64_t* consult(cluster::ChoiceKind kind, uint32_t entity) {
    const uint64_t site = (static_cast<uint64_t>(kind) << 32) | entity;
    const uint64_t occurrence = consults_[site]++;
    const auto it = overrides_.find(target_key(kind, entity, occurrence));
    if (it == overrides_.end()) {
      return nullptr;
    }
    ++applied_;
    return &it->second;
  }

  std::unordered_map<uint64_t, uint64_t> overrides_;  // target -> bits
  std::unordered_map<uint64_t, uint32_t> consults_;   // site -> count
  uint64_t applied_ = 0;
};

}  // namespace hs::testing
