#pragma once
// Section 6.3 sensitivity: the model's 1-to-1 fault↔failure-region mapping.
// In reality several distinct mistakes can create the *same* failure region;
// an assessor who estimates pmax from per-mistake frequencies then
// *underestimates* the probability of the region being present (which can
// approach the sum of the mistake probabilities).  This module builds the
// aliased generative model and the region-level universe an assessor should
// have used, so experiment E14 can quantify the estimation error.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/fault_universe.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

/// A failure region fed by several independent mistakes.
struct aliased_region {
  std::vector<double> mistake_probs;  ///< each mistake independently made
  double q = 0.0;                     ///< region hit probability

  /// Region present iff at least one mistake is made:
  /// p_region = 1 − Π(1 − mistake_probs).
  [[nodiscard]] double region_presence_probability() const;
};

class aliased_model {
 public:
  explicit aliased_model(std::vector<aliased_region> regions);

  [[nodiscard]] std::size_t region_count() const noexcept { return regions_.size(); }
  [[nodiscard]] const std::vector<aliased_region>& regions() const noexcept {
    return regions_;
  }

  /// The *correct* region-level universe (p_i = region presence probability).
  [[nodiscard]] core::fault_universe effective_universe() const;

  /// The universe a naive assessor builds by treating each mistake as its
  /// own fault with its own (shared) region — i.e. applying the paper's
  /// 1-to-1 assumption to mistake-level data.  Under it the same region is
  /// multiply counted, so pmax is read off the *largest single mistake*.
  [[nodiscard]] core::fault_universe naive_mistake_universe() const;

  /// pmax as the naive assessor estimates it (max single-mistake probability)
  /// vs the true region-level pmax.
  [[nodiscard]] double naive_p_max() const;
  [[nodiscard]] double true_p_max() const;

  /// Sample a version at the mistake level (region present iff any of its
  /// mistakes fires, the region's mistakes drawn in order until one does):
  /// bit i of `out` is region i's presence.
  void sample_mask(stats::rng& r, core::fault_mask& out) const;

 private:
  std::vector<aliased_region> regions_;
};

/// Build an aliased model from a region-level universe by splitting each
/// fault's presence probability across `mistakes_per_region` equal
/// independent mistakes (preserving the region presence probability).
[[nodiscard]] aliased_model split_into_mistakes(const core::fault_universe& u,
                                                std::size_t mistakes_per_region);

}  // namespace reldiv::mc
