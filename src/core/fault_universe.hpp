#pragma once
// The paper's central object (Section 2.2): a fixed collection of potential
// faults {F1 .. Fn}.  Fault i is independently left in a newly developed
// version with probability p_i; if present, its (disjoint) failure region is
// hit by an operational demand with probability q_i.
//
// A `fault_universe` is an immutable value type: process-improvement
// operators (improvement.hpp) return transformed copies, matching the
// paper's treatment of "a process" as a parameter vector.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fault_mask.hpp"

namespace reldiv::core {

/// Per-64-fault-word sampling plan entry: when every fault in the word
/// shares one p, the fast-simd engine's bit-slice recurrence can emit all 64
/// presence bits of a version from (53 − trailing-zero-bits) draws;
/// otherwise the word takes one draw per fault.  Computed once at
/// construction (the universe is immutable), purely from the p layout —
/// never from hardware — so kernel selection is part of the deterministic
/// result identity.
struct sample_block {
  bool uniform = false;          ///< all faults in this word share one p
  bool sliceable = false;        ///< uniform AND the threshold is cheap enough
                                 ///< that bit-slicing beats one draw per fault
  std::uint64_t threshold = 0;   ///< 53-bit Bernoulli threshold of the shared p
};

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

  // --- SoA view for the bitset Monte-Carlo engine -------------------------
  // Contiguous parallel arrays cached at construction (the universe is an
  // immutable value type, so they never go stale): per-fault p and q for
  // vectorizable kernels, plus precomputed integer Bernoulli thresholds so
  // sampling is one rng word + one integer compare per fault, with no
  // double-precision path.

  /// Contiguous p array (parallel to atoms()).
  [[nodiscard]] std::span<const double> p_array() const noexcept { return p_soa_; }
  /// Contiguous q array (parallel to atoms()); the masked-dot-product target
  /// of fault_mask PFD kernels.
  [[nodiscard]] std::span<const double> q_array() const noexcept { return q_soa_; }
  /// 53-bit thresholds: (rng() >> 11) < threshold[i] is decision-for-decision
  /// identical to rng.bernoulli(p_i).
  [[nodiscard]] std::span<const std::uint64_t> bernoulli_thresholds() const noexcept {
    return thresh53_;
  }
  /// 32-bit thresholds for halved-draw samplers (p rounded to the 2^-32 grid):
  /// one draw's high and low halves decide both versions of a pair.
  [[nodiscard]] std::span<const std::uint64_t> bernoulli_thresholds32() const noexcept {
    return thresh32_;
  }
  /// True iff realizing every p on the 2^-32 grid (rounded up) inflates the
  /// aggregate statistics E[N1] = Σp and E[Θ1] = Σpq by less than a 1e-6
  /// relative factor.  False for universes dominated by faults rarer than
  /// the grid resolves — e.g. every p = 1e-12 would be sampled as
  /// 2^-32 ≈ 2.3e-10, a ~233x oversample — in which case engines must fall
  /// back to the 53-bit kernels.
  [[nodiscard]] bool fast32_grid_safe() const noexcept { return fast32_safe_; }
  /// Per-word sampling plan (one entry per mask word): which words can run
  /// the word-parallel bit-slice recurrence because all their faults share
  /// one p (runs of equal p, e.g. concatenated make_homogeneous blocks).
  [[nodiscard]] std::span<const sample_block> sample_blocks() const noexcept {
    return blocks_;
  }
  /// Words a fault_mask over this universe occupies.
  [[nodiscard]] std::size_t mask_words() const noexcept {
    return fault_mask::words_needed(atoms_.size());
  }

  /// Universes are equal iff their atom vectors are (the SoA caches are
  /// derived data).
  friend bool operator==(const fault_universe& a, const fault_universe& b) {
    return a.atoms_ == b.atoms_;
  }

 private:
  void rebuild_soa();
  /// Re-derive the per-word sampling plan (uniform/sliceable flags and the
  /// shared thresholds) from the CURRENT atom layout.  Called by rebuild_soa
  /// on construction and after any index remap (the permutation layer builds
  /// remapped universes through the constructor, which funnels here) — the
  /// flags are a function of the layout, never a one-shot annotation, so a
  /// permuted copy of a heterogeneous universe picks up its newly sliceable
  /// words.
  void make_sample_blocks();

  std::vector<fault_atom> atoms_;
  std::vector<double> p_soa_;
  std::vector<double> q_soa_;
  std::vector<std::uint64_t> thresh53_;
  std::vector<std::uint64_t> thresh32_;
  std::vector<sample_block> blocks_;
  bool fast32_safe_ = true;
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
/// the ordinary fault_universe constructor, so its SoA caches and sample
/// blocks are re-derived from the permuted layout (see make_sample_blocks).
[[nodiscard]] universe_permutation make_p_sorted_permutation(const fault_universe& u);

/// The golden-ratio threshold (√5−1)/2 at which p²(1−p²) = p(1−p): below it
/// every summand of σ²(Θ2) is smaller than the matching summand of σ²(Θ1)
/// (paper §3.1.2).
inline constexpr double kGoldenThreshold = 0.61803398874989484820;

}  // namespace reldiv::core
