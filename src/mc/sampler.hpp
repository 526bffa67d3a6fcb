#pragma once
// Sampling the paper's generative story: "developing versions ... means
// choosing, randomly and independently, possible subsets of this set of
// possible faults" (§2.2).  A sampled version is the subset of faults
// present, held as a core::fault_mask over the universe: sampling writes
// presence bits word by word, and its PFD is the sum of the q_i of present
// faults (disjoint-region assumption), a masked dot product against the
// universe's contiguous q array.  The draws here are xoshiro256++ draws
// against the 53-bit thresholds; the fast-simd engine's counter stream,
// which is not stream-compatible with them, is specified and drawn in
// core/simd_sampler.hpp.

#include <cstdint>
#include <span>

#include "core/fault_mask.hpp"
#include "core/fault_universe.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

/// Core threshold kernel: bit i of `out` is set iff (r() >> 11) <
/// thresholds[i], one rng word per threshold in index order — the same
/// decision r.bernoulli(p_i) makes when thresholds come from
/// core::bernoulli_threshold.  `out` is resized to thresholds.size() only
/// when its size differs (steady-state reuse performs no allocation).
/// Shared by every sampler that carries the bit-exactness contract.
void sample_mask_from_thresholds(std::span<const std::uint64_t> thresholds,
                                 stats::rng& r, core::fault_mask& out);

/// Draw one version: fault i present independently with probability p_i.
/// Consumes exactly one rng word per fault, in fault order, making the same
/// decision as r.bernoulli(p_i).  `out` is resized to u.size() only when its
/// size differs (steady-state reuse performs no allocation).
void sample_version_mask(const core::fault_universe& u, stats::rng& r,
                         core::fault_mask& out);

/// PFD of a version: Σ q_i over its faults, in ascending fault order from
/// +0.0 (a masked dot product against the contiguous q array).
[[nodiscard]] double pfd_of(const core::fault_mask& v, const core::fault_universe& u);

/// Fused 1-out-of-2 kernel: intersection PFD and non-emptiness in one pass.
[[nodiscard]] core::pair_intersection_result pair_pfd_stats(
    const core::fault_mask& a, const core::fault_mask& b,
    const core::fault_universe& u);

/// PFD of the 1-out-of-2 system built from mask versions a and b.
[[nodiscard]] double pair_pfd(const core::fault_mask& a, const core::fault_mask& b,
                              const core::fault_universe& u);

/// PFD of a 1-out-of-m system over mask versions.  `scratch` holds the
/// running intersection (resized as needed, reusable across calls).
[[nodiscard]] double tuple_pfd(std::span<const core::fault_mask> versions,
                               const core::fault_universe& u,
                               core::fault_mask& scratch);

}  // namespace reldiv::mc
