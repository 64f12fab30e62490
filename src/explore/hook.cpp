#include "explore/hook.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace hs::explore {

namespace {

/// Pack (kind, entity, occurrence) into one table key. Schedule::validate
/// bounds entity and occurrence below 2^24, so the fields cannot collide.
uint64_t target_key(cluster::ChoiceKind kind, uint32_t entity,
                    uint64_t occurrence) {
  return (static_cast<uint64_t>(kind) << 48) |
         (static_cast<uint64_t>(entity) << 24) | occurrence;
}

}  // namespace

ScheduleHook::ScheduleHook(const Schedule& schedule) {
  schedule.validate();
  for (const Override& op : schedule.ops) {
    overrides_[target_key(op.kind, op.entity, op.occurrence)] = op.value_bits;
    targeted_[static_cast<size_t>(op.kind)].push_back(op.entity);
  }
  for (std::vector<uint32_t>& entities : targeted_) {
    std::sort(entities.begin(), entities.end());
    entities.erase(std::unique(entities.begin(), entities.end()),
                   entities.end());
  }
}

void ScheduleHook::grow(size_t kind, uint32_t entity) {
  std::vector<Counter>& counters = counters_[kind];
  const size_t old_size = counters.size();
  counters.resize(static_cast<size_t>(entity) + 1);
  const std::vector<uint32_t>& targeted = targeted_[kind];
  for (auto it = std::lower_bound(targeted.begin(), targeted.end(), old_size);
       it != targeted.end() && *it <= entity; ++it) {
    counters[*it].targeted = true;
  }
}

const uint64_t* ScheduleHook::consult(cluster::ChoiceKind kind,
                                      uint32_t entity) {
  const size_t k = static_cast<size_t>(kind);
  HS_CHECK(k < kKinds, "choice kind out of range: " << k);
  if (entity >= counters_[k].size()) [[unlikely]] {
    grow(k, entity);
  }
  Counter& counter = counters_[k][entity];
  const uint64_t occurrence = counter.consults++;
  if (!counter.targeted) {
    return nullptr;
  }
  const auto* entry = overrides_.find(target_key(kind, entity, occurrence));
  if (entry == nullptr) {
    return nullptr;
  }
  ++applied_;
  return &entry->value;
}

bool ScheduleHook::on_bool(cluster::ChoiceKind kind, uint32_t entity,
                           bool drawn) {
  const uint64_t* bits = consult(kind, entity);
  return bits == nullptr ? drawn : *bits != 0;
}

double ScheduleHook::on_double(cluster::ChoiceKind kind, uint32_t entity,
                               double drawn) {
  const uint64_t* bits = consult(kind, entity);
  if (bits == nullptr) {
    return drawn;
  }
  double value = 0.0;
  static_assert(sizeof(value) == sizeof(*bits));
  std::memcpy(&value, bits, sizeof(value));
  return value;
}

std::vector<ScheduleHook::Site> ScheduleHook::sites() const {
  // The dense table is already in (kind, entity) order.
  std::vector<Site> sites;
  for (size_t k = 0; k < kKinds; ++k) {
    const std::vector<Counter>& counters = counters_[k];
    for (size_t entity = 0; entity < counters.size(); ++entity) {
      if (counters[entity].consults != 0) {
        sites.push_back(Site{static_cast<cluster::ChoiceKind>(k),
                             static_cast<uint32_t>(entity),
                             counters[entity].consults});
      }
    }
  }
  return sites;
}

}  // namespace hs::explore
