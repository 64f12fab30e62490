// SITA-E: size-interval task assignment with equalized expected load.
//
// The comparator from the task-assignment literature the paper contrasts
// itself with (Crovella, Harchol-Balter & Murta; Schroeder &
// Harchol-Balter): if job sizes are known when jobs arrive, route by
// size — machine i receives exactly the jobs whose size falls in
// [xᵢ₋₁, xᵢ), with the cutoffs chosen so each machine's expected load
// share matches its speed share:
//
//   ∫_{xᵢ₋₁}^{xᵢ} x·f(x) dx = (sᵢ/Σs)·E[X].
//
// Size intervals are assigned in increasing order of speed: the fastest
// machines serve the largest jobs. Isolating short jobs from long ones
// eliminates the variance-driven slowdown of FCFS servers; under
// processor sharing the advantage largely evaporates — which is exactly
// the paper's positioning: PS scheduling plus optimized allocation gets
// comparable benefits *without* knowing sizes
// (bench/ablation_sita_comparison).
//
// Cutoffs are computed in closed form for the Bounded Pareto B(k, p, α)
// size distribution used throughout (§4.1), via its partial expectation.
//
// Threading: pick_sized() is logically const — it reads the fixed
// cutoff table and draws nothing from the RNG — but the class follows
// the interface's caller-serialized contract (dispatch/dispatcher.h)
// like every other policy.
#pragma once

#include <vector>

#include "dispatch/dispatcher.h"
#include "rng/distributions.h"

namespace hs::dispatch {

class SitaDispatcher final : public Dispatcher {
 public:
  /// `speeds` are the machine speeds (interval order follows speed
  /// order); `sizes` is the Bounded Pareto job-size distribution the
  /// cutoffs are computed for.
  SitaDispatcher(std::vector<double> speeds, rng::BoundedPareto sizes);

  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  [[nodiscard]] size_t pick_sized(rng::Xoshiro256& gen,
                                  double size) override;
  [[nodiscard]] Capabilities capabilities() const override {
    return kSizeAware;
  }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "sita-e"; }
  [[nodiscard]] size_t machine_count() const override {
    return speeds_.size();
  }

  /// The size cutoffs x₀ = k < x₁ < … < xₙ = p (n+1 values).
  [[nodiscard]] const std::vector<double>& cutoffs() const {
    return cutoffs_;
  }
  /// Expected fraction of *jobs* (not load) routed to machine i.
  [[nodiscard]] double expected_job_fraction(size_t machine) const;

 private:
  std::vector<double> speeds_;
  rng::BoundedPareto sizes_;
  std::vector<size_t> by_speed_;   // machine indices, ascending speed
  std::vector<double> cutoffs_;    // size boundaries, ascending
};

/// Partial expectation of a Bounded Pareto: ∫_a^b x f(x) dx for
/// k <= a <= b <= p. Exposed for tests.
[[nodiscard]] double bounded_pareto_partial_mean(
    const rng::BoundedPareto& dist, double a, double b);

/// Smallest x such that ∫_k^x t f(t) dt = target (target in
/// [0, mean]). Exposed for tests.
[[nodiscard]] double bounded_pareto_partial_mean_inverse(
    const rng::BoundedPareto& dist, double target);

}  // namespace hs::dispatch
