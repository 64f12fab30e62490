// Workload allocation vectors.
//
// An Allocation is the {α₁, …, αₙ} of the paper: αᵢ is the fraction of
// all arriving jobs sent to computer cᵢ, with αᵢ ≥ 0 and Σαᵢ = 1. The
// class enforces those invariants at construction so downstream code
// (dispatchers, the analytic model) can rely on them.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace hs::alloc {

class Allocation {
 public:
  /// Validates: non-empty, all fractions ≥ 0 (tiny negative rounding noise
  /// is clamped to 0), sum within 1e-9 of 1 (then exactly renormalized).
  explicit Allocation(std::vector<double> fractions);

  /// Replace the fractions in place (same validation as the constructor),
  /// reusing the existing buffer's capacity — allocation-free when the new
  /// size fits. This is what lets live re-allocation (survivor rebuilds,
  /// adaptive re-solves) re-weight dispatchers without touching the heap.
  void assign(std::span<const double> fractions);

  /// The constructor's exact validation + normalization applied to a raw
  /// buffer in place. Allocation-free re-weighting paths use this to
  /// reproduce bit-identical fractions to an Allocation round-trip
  /// without constructing one.
  static void normalize(std::vector<double>& fractions);

  /// Replace the fractions with values previously produced by an
  /// Allocation: validated (each in [0, 1], sum within 1e-6 of 1) but
  /// NOT renormalized, so the copy is bit-for-bit. normalize() divides
  /// by a sum that is itself one rounding step away from 1.0, so
  /// re-normalizing a round-tripped vector can flip low-order bits; the
  /// checkpoint/restore path (serving/snapshot.h) needs the donor's
  /// exact fractions back to reproduce its pick sequence.
  void assign_exact(std::span<const double> fractions);

  /// True iff assign_exact() accepts `fractions` — lets a restore path
  /// decline a corrupt checkpoint before it mutates anything.
  [[nodiscard]] static bool restorable(std::span<const double> fractions);

  [[nodiscard]] size_t size() const { return fractions_.size(); }
  [[nodiscard]] double operator[](size_t i) const { return fractions_[i]; }
  [[nodiscard]] const std::vector<double>& fractions() const {
    return fractions_;
  }
  [[nodiscard]] std::span<const double> span() const { return fractions_; }

  /// Number of machines with αᵢ > 0.
  [[nodiscard]] size_t active_count() const;

  /// True if machine i receives no work.
  [[nodiscard]] bool is_excluded(size_t i) const {
    return fractions_[i] == 0.0;
  }

  /// Per-machine utilization under this allocation:
  /// ρᵢ = αᵢλ/(sᵢμ) = αᵢ·ρ·Σs/sᵢ given system utilization ρ.
  [[nodiscard]] std::vector<double> machine_utilizations(
      std::span<const double> speeds, double system_utilization) const;

  /// Largest per-machine utilization (must be < 1 for stability).
  [[nodiscard]] double max_machine_utilization(
      std::span<const double> speeds, double system_utilization) const;

  [[nodiscard]] std::string to_string(int precision = 4) const;

 private:
  std::vector<double> fractions_;
};

}  // namespace hs::alloc
