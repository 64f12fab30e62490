#include "dispatch/survivor_mask.h"

#include "util/check.h"

namespace hs::dispatch {

SurvivorMask::SurvivorMask(Dispatcher& inner, Reweighter reweighter)
    : inner_(inner), reweighter_(std::move(reweighter)) {
  own_.assign(inner_.machine_count(), true);
  outer_ = own_;
  native_ = inner_.set_available_mask(own_);
  if (!native_ && reweighter_) {
    reweighter_(own_, fractions_scratch_);
  }
  HS_CHECK(native_ || (reweighter_ &&
                       inner_.rebuild_fractions(fractions_scratch_)),
           "inner dispatcher \""
               << inner_.name()
               << "\" neither masks natively nor reweights in place");
}

void SurvivorMask::set_outer(const std::vector<bool>& outer) {
  HS_CHECK(outer.size() == own_.size(),
           "availability mask size " << outer.size()
                                     << " != machine count " << own_.size());
  outer_ = outer;
  apply();
}

void SurvivorMask::apply() {
  effective_.assign(own_.size(), false);
  size_t routable = 0;
  for (size_t i = 0; i < own_.size(); ++i) {
    effective_[i] = own_[i] && outer_[i];
    routable += effective_[i] ? 1 : 0;
  }
  if (native_) {
    inner_.set_available_mask(effective_);
    return;
  }
  if (routable == 0) {
    return;  // nothing to reweight over: keep the previous routing
  }
  reweighter_(effective_, fractions_scratch_);
  inner_.rebuild_fractions(fractions_scratch_);
  ++rebuilds_;
}

void SurvivorMask::reset() {
  own_.assign(own_.size(), true);
  outer_.assign(outer_.size(), true);
  rebuilds_ = 0;
  if (native_) {
    inner_.reset();
    inner_.set_available_mask(own_);
    return;
  }
  // Full-availability fractions into the live dispatcher
  // (rebuild_fractions resets its routing state).
  reweighter_(own_, fractions_scratch_);
  inner_.reset();
  inner_.rebuild_fractions(fractions_scratch_);
}

std::optional<size_t> SurvivorMask::restore(
    const std::vector<bool>& own, std::span<const double> inner_state) {
  HS_CHECK(own.size() == own_.size(),
           "restored mask size " << own.size() << " != machine count "
                                 << own_.size());
  std::vector<double> rollback;
  const bool stateful = inner_.save_state(rollback) > 0;
  std::vector<bool> previous = own_;
  const uint64_t rebuilds = rebuilds_;
  // Push the restored mask down *before* restoring inner state: a
  // reweight resets routing state, which the restore then overwrites.
  own_ = own;
  apply();
  const size_t consumed = inner_.restore_state(inner_state);
  if (consumed == 0 && stateful) {
    own_ = std::move(previous);
    apply();
    inner_.restore_state(rollback);
    rebuilds_ = rebuilds;
    return std::nullopt;
  }
  return consumed;
}

}  // namespace hs::dispatch
