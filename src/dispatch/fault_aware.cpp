#include "dispatch/fault_aware.h"

#include <algorithm>

#include "util/check.h"

namespace hs::dispatch {

FaultAwareDispatcher::FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner)
    : FaultAwareDispatcher(std::move(inner), Reweighter{}) {}

FaultAwareDispatcher::FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner,
                                           Reweighter reweighter)
    : DecoratorDispatcher(std::move(inner)),
      mask_(this->inner(), std::move(reweighter)) {}

void FaultAwareDispatcher::reset() { mask_.reset(); }

std::string FaultAwareDispatcher::name() const {
  return "fault-aware(" + inner().name() + ")";
}

size_t FaultAwareDispatcher::down_count() const {
  return static_cast<size_t>(
      std::count(available().begin(), available().end(), false));
}

void FaultAwareDispatcher::on_machine_state_report(size_t machine, bool up) {
  HS_CHECK(machine < available().size(),
           "machine index out of range: " << machine);
  if (available()[machine] == up) {
    return;  // duplicate report — already in the believed state
  }
  mask_.set_own(machine, up);
  mask_.apply();
}

bool FaultAwareDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  mask_.set_outer(available);
  return true;
}

size_t FaultAwareDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = available().size();
  out.reserve(out.size() + n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(available()[i] ? 1.0 : 0.0);
  }
  return n + inner().save_state(out);
}

size_t FaultAwareDispatcher::restore_state(std::span<const double> state) {
  const size_t n = available().size();
  if (state.size() < n) {
    return 0;
  }
  std::vector<bool> restored(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(state[i] == 0.0 || state[i] == 1.0)) {
      return 0;
    }
    restored[i] = state[i] == 1.0;
  }
  const auto inner_consumed = mask_.restore(restored, state.subspan(n));
  return inner_consumed ? n + *inner_consumed : 0;
}

}  // namespace hs::dispatch
