#pragma once
// The paper's central object (Section 2.2): a fixed collection of potential
// faults {F1 .. Fn}.  Fault i is independently left in a newly developed
// version with probability p_i; if present, its (disjoint) failure region is
// hit by an operational demand with probability q_i.
//
// A `fault_universe` is an immutable value type: process-improvement
// operators (improvement.hpp) return transformed copies, matching the
// paper's treatment of "a process" as a parameter vector.  It holds the
// model (the atoms) and the two arrays every mask sampler and PFD kernel
// reads (q and the 53-bit Bernoulli thresholds); the fast-simd engine's
// counter-stream layout is derived from it by core::make_counter_sample_plan.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fault_mask.hpp"

namespace reldiv::core {

/// One potential fault: (p, q) as defined in the paper's Table 1.
struct fault_atom {
  double p = 0.0;  ///< probability the fault is present in a random version
  double q = 0.0;  ///< probability per demand of hitting its failure region

  friend bool operator==(const fault_atom&, const fault_atom&) = default;
};

class fault_universe {
 public:
  fault_universe() = default;

  /// Throws std::invalid_argument unless every p in [0,1], every q in [0,1],
  /// and sum(q) <= 1 + tolerance (the paper's disjoint-region constraint,
  /// discussed in §6.2).  Pass `allow_q_overflow = true` to build
  /// deliberately pessimistic universes for the §6.2 sensitivity study.
  explicit fault_universe(std::vector<fault_atom> atoms, bool allow_q_overflow = false);

  /// Convenience: parallel (p, q) arrays.
  static fault_universe from_arrays(std::span<const double> p, std::span<const double> q,
                                    bool allow_q_overflow = false);

  [[nodiscard]] std::size_t size() const noexcept { return atoms_.size(); }
  [[nodiscard]] bool empty() const noexcept { return atoms_.empty(); }
  /// Unchecked (debug-asserted) access: this sits on the Monte-Carlo hot
  /// path, so no bounds check in release builds.  Use at() for checked access.
  [[nodiscard]] const fault_atom& operator[](std::size_t i) const noexcept {
    assert(i < atoms_.size());
    return atoms_[i];
  }
  /// Checked access; throws std::out_of_range.
  [[nodiscard]] const fault_atom& at(std::size_t i) const { return atoms_.at(i); }
  [[nodiscard]] const std::vector<fault_atom>& atoms() const noexcept { return atoms_; }

  [[nodiscard]] auto begin() const noexcept { return atoms_.begin(); }
  [[nodiscard]] auto end() const noexcept { return atoms_.end(); }

  /// pmax = max{p_1 .. p_n} (paper §3.1.1); 0 for the empty universe.
  [[nodiscard]] double p_max() const noexcept;
  /// max q_i; 0 for the empty universe.
  [[nodiscard]] double q_max() const noexcept;
  /// sum of q_i (<= 1 under the disjointness assumption).
  [[nodiscard]] double q_total() const noexcept;
  /// Expected number of faults in a version = sum p_i.
  [[nodiscard]] double expected_fault_count() const noexcept;

  [[nodiscard]] std::vector<double> p_values() const;
  [[nodiscard]] std::vector<double> q_values() const;

  /// True iff every p_i <= threshold (used for the eq. 9 golden-ratio
  /// precondition).
  [[nodiscard]] bool all_p_below(double threshold) const noexcept;

  /// Human-readable one-line description for bench output.
  [[nodiscard]] std::string describe() const;

  // --- SoA view for the mask samplers ------------------------------------
  // Contiguous arrays cached at construction (the universe is an immutable
  // value type, so they never go stale): the q array for the masked-sum PFD
  // kernels, and integer Bernoulli thresholds so sampling is one rng word +
  // one integer compare per fault, with no double-precision path.

  /// Contiguous q array (parallel to atoms()); the masked-dot-product target
  /// of fault_mask PFD kernels.
  [[nodiscard]] std::span<const double> q_array() const noexcept { return q_soa_; }
  /// 53-bit thresholds: (rng() >> 11) < threshold[i] is decision-for-decision
  /// identical to rng.bernoulli(p_i).
  [[nodiscard]] std::span<const std::uint64_t> bernoulli_thresholds() const noexcept {
    return thresh53_;
  }

  /// Universes are equal iff their atom vectors are (the SoA caches are
  /// derived data).
  friend bool operator==(const fault_universe& a, const fault_universe& b) {
    return a.atoms_ == b.atoms_;
  }

 private:
  std::vector<fault_atom> atoms_;
  std::vector<double> q_soa_;
  std::vector<std::uint64_t> thresh53_;
};

// ---------------------------------------------------------------------------
// Universe relayout for word-parallel sampling (ROADMAP item 5)
// ---------------------------------------------------------------------------

/// A fault-index permutation paired with the permuted universe it produces.
/// Sorting faults by p gathers equal-p runs into whole 64-fault words, so an
/// arbitrary heterogeneous universe becomes mostly bit-sliceable — the shape
/// the fast-simd engine's counter kernels want.
/// The maps translate between the two layouts: samplers run over
/// `universe` (permuted), and any per-fault output (masks, index lists,
/// weight vectors) is inverse-mapped back to the caller's original indices
/// in result reporting.
///
/// Invariants: `universe.atoms()[i] == original.atoms()[to_original[i]]`,
/// `to_permuted[to_original[i]] == i`, and the permutation is a stable sort
/// by (p, original index) — deterministic, a pure function of the original
/// universe, and therefore part of any derived result's identity.
struct universe_permutation {
  fault_universe universe;                 ///< atoms in permuted (p-sorted) order
  std::vector<std::uint32_t> to_permuted;  ///< original index -> permuted index
  std::vector<std::uint32_t> to_original;  ///< permuted index -> original index
  bool identity = true;                    ///< true iff the sort was a no-op

  [[nodiscard]] std::size_t size() const noexcept { return to_permuted.size(); }

  /// Index translation (debug-asserted bounds, hot-path friendly).
  [[nodiscard]] std::uint32_t index_to_permuted(std::uint32_t original) const noexcept {
    assert(original < to_permuted.size());
    return to_permuted[original];
  }
  [[nodiscard]] std::uint32_t index_to_original(std::uint32_t permuted) const noexcept {
    assert(permuted < to_original.size());
    return to_original[permuted];
  }

  /// Rewrite a mask over the original layout into the permuted layout
  /// (bit to_permuted[i] of the result equals bit i of `m`).
  [[nodiscard]] fault_mask mask_to_permuted(const fault_mask& m) const;
  /// Inverse of mask_to_permuted.
  [[nodiscard]] fault_mask mask_to_original(const fault_mask& m) const;

  /// Remap a per-fault vector (q weights, overlap vectors, per-fault tallies)
  /// from the original layout into the permuted layout...
  [[nodiscard]] std::vector<double> values_to_permuted(std::span<const double> v) const;
  /// ...and back (inverse remap, used when reporting per-fault results).
  [[nodiscard]] std::vector<double> values_to_original(std::span<const double> v) const;
};

/// Build the p-sorted relayout of `u`: faults stably sorted by ascending p
/// (ties keep original order).  The permuted universe is constructed through
/// the ordinary fault_universe constructor, so its SoA caches follow the
/// permuted layout, and a counter plan built over it
/// (core::make_counter_sample_plan) sees the equal-p words the sort made.
[[nodiscard]] universe_permutation make_p_sorted_permutation(const fault_universe& u);

/// The golden-ratio threshold (√5−1)/2 at which p²(1−p²) = p(1−p): below it
/// every summand of σ²(Θ2) is smaller than the matching summand of σ²(Θ1)
/// (paper §3.1.2).
inline constexpr double kGoldenThreshold = 0.61803398874989484820;

}  // namespace reldiv::core
