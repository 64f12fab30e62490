// Base class for dispatcher decorators.
//
// A decorator owns the dispatcher it wraps and, by default, forwards
// every Dispatcher hook to it verbatim — picks, feedback, masks,
// reweights and the checkpoint channel alike. A concrete decorator
// (HedgedDispatcher, FaultAwareDispatcher, overload::
// CircuitBreakerDispatcher) overrides only the hooks it changes, so
// decorators stack in any order and a hook nobody intercepts reaches
// the core policy unchanged. The wrapped dispatcher is never replaced:
// inner() is stable for the decorator's lifetime.
//
// Threading: caller-serialized (dispatch/dispatcher.h).
#pragma once

#include <memory>

#include "dispatch/dispatcher.h"
#include "util/check.h"

namespace hs::dispatch {

class DecoratorDispatcher : public Dispatcher {
 public:
  [[nodiscard]] Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override {
    return inner_->pick(gen);
  }
  [[nodiscard]] size_t pick_sized(rng::Xoshiro256& gen,
                                  double size) override {
    return inner_->pick_sized(gen, size);
  }
  [[nodiscard]] size_t pick_hedge(rng::Xoshiro256& gen, double size,
                                  size_t exclude) override {
    return inner_->pick_hedge(gen, size, exclude);
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] size_t machine_count() const override {
    return inner_->machine_count();
  }
  void on_arrival(double now) override { inner_->on_arrival(now); }
  void on_departure_report(size_t machine, double now, double work) override {
    inner_->on_departure_report(machine, now, work);
  }
  void on_load_report(size_t machine, uint64_t queue_length) override {
    inner_->on_load_report(machine, queue_length);
  }
  bool rebuild_fractions(std::span<const double> fractions) override {
    return inner_->rebuild_fractions(fractions);
  }
  bool set_available_mask(const std::vector<bool>& available) override {
    return inner_->set_available_mask(available);
  }
  void on_dispatch_result(size_t machine, bool accepted,
                          double now) override {
    inner_->on_dispatch_result(machine, accepted, now);
  }
  void on_machine_state_report(size_t machine, bool up) override {
    inner_->on_machine_state_report(machine, up);
  }
  size_t save_state(std::vector<double>& out) const override {
    return inner_->save_state(out);
  }
  size_t restore_state(std::span<const double> state) override {
    return inner_->restore_state(state);
  }

  [[nodiscard]] const Dispatcher& inner() const { return *inner_; }
  [[nodiscard]] Dispatcher& inner() { return *inner_; }

 protected:
  explicit DecoratorDispatcher(std::unique_ptr<Dispatcher> inner)
      : inner_(std::move(inner)) {
    HS_CHECK(inner_ != nullptr, "decorator needs a dispatcher");
  }

 private:
  std::unique_ptr<Dispatcher> inner_;
};

/// The outermost layer of type `Layer` in a decorator stack (the stack
/// itself included), or null: walks inner() down to the core policy.
template <typename Layer>
[[nodiscard]] Layer* find_layer(Dispatcher* dispatcher) {
  while (dispatcher != nullptr) {
    if (auto* layer = dynamic_cast<Layer*>(dispatcher)) {
      return layer;
    }
    auto* decorator = dynamic_cast<DecoratorDispatcher*>(dispatcher);
    dispatcher = decorator != nullptr ? &decorator->inner() : nullptr;
  }
  return nullptr;
}

}  // namespace hs::dispatch
