// ScheduleHook: applies a fault schedule to one simulation run.
//
// Installed as SimulationConfig::choice_hook, the hook counts how often
// each (kind, entity) choice point is consulted and substitutes the
// schedule's value whenever an override addresses the current
// occurrence. Draws it does not override pass through untouched, so an
// empty schedule replays the natural run bit-for-bit.
//
// The hook also records every site it saw (with its consult count) —
// the coverage-guided search mutates schedules toward *observed* sites,
// which is what keeps random mutation from wasting runs on choice
// points the scenario never reaches.
//
// A robust run consults the hook ~14 times per job, so a consult is
// cheap: the counters are one dense vector per ChoiceKind indexed by
// entity, and a site no override targets pays one increment and no
// probe. A counter vector grows only when a consult reaches a new
// entity — never to fit the schedule, whose entities may reach 2^24−1.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/choice.h"
#include "explore/schedule.h"
#include "util/id_table.h"

namespace hs::explore {

class ScheduleHook : public cluster::ChoiceHook {
 public:
  /// One choice point the run actually consulted, with how many times.
  struct Site {
    cluster::ChoiceKind kind;
    uint32_t entity = 0;
    uint32_t consults = 0;
  };

  explicit ScheduleHook(const Schedule& schedule);

  bool on_bool(cluster::ChoiceKind kind, uint32_t entity,
               bool drawn) override;
  double on_double(cluster::ChoiceKind kind, uint32_t entity,
                   double drawn) override;

  /// How many overrides actually fired (a shrunk schedule should have
  /// applied() == ops.size(); dead ops are shrinkable).
  [[nodiscard]] uint64_t applied() const { return applied_; }

  /// Observed sites, sorted by (kind, entity) for determinism.
  [[nodiscard]] std::vector<Site> sites() const;

 private:
  static constexpr size_t kKinds =
      static_cast<size_t>(cluster::ChoiceKind::kCount);

  struct Counter {
    uint32_t consults = 0;
    bool targeted = false;  // some override addresses this site
  };

  /// Count one consult of (kind, entity); pointer to the override's
  /// value bits, or null when this consult is not overridden.
  const uint64_t* consult(cluster::ChoiceKind kind, uint32_t entity);
  /// Extend `kind`'s counters to cover `entity`, marking targeted sites.
  void grow(size_t kind, uint32_t entity);

  std::array<std::vector<Counter>, kKinds> counters_;  // [kind][entity]
  // Sorted entities each kind's overrides address (one per op at most).
  std::array<std::vector<uint32_t>, kKinds> targeted_;
  util::IdTable<uint64_t> overrides_;  // packed target -> value bits
  uint64_t applied_ = 0;
};

}  // namespace hs::explore
