#pragma once
// Sampling the paper's generative story: "developing versions ... means
// choosing, randomly and independently, possible subsets of this set of
// possible faults" (§2.2).  A sampled version is the subset of faults
// present, held as a core::fault_mask over the universe: sampling writes
// presence bits word by word, and its PFD is the sum of the q_i of present
// faults (disjoint-region assumption), a masked dot product against the
// universe's contiguous q array.

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

// ---------------------------------------------------------------------------
// Counter-based sampling: THE pinned `fast-simd` contract.
//
// A version-pair of a counter stream is a pure function of (key, pair
// index): pair s consumes counters [s*D, (s+1)*D) of stats::counter_draw,
// where D = counter_draws_per_pair(u).  Draw consumption order within a
// pair is word-major over the universe's sample_blocks plan:
//   - sliceable word, degenerate threshold (0 or 2^53): zero draws;
//   - sliceable word otherwise: version a's 64 bits from the bit-slice
//     recurrence (cost = 53 - countr_zero(threshold) draws, lowest set
//     digit first), then version b's bits from the next `cost` draws;
//   - non-sliceable word, u.fast32_grid_safe(): one draw per occupied bit,
//     bit k of a from the high 32 bits vs bernoulli_thresholds32()[i], bit
//     k of b from the low 32 bits (p realized on the 2^-32 grid);
//   - non-sliceable word, NOT grid-safe: one draw per occupied bit for
//     version a ((draw >> 11) < bernoulli_thresholds()[i]), then one per
//     bit for version b.
// This scalar reference is the normative implementation; the fast-simd
// engine (core::simd_sampler, scalar fallback and AVX2 alike) must match it
// decision-for-decision — pinned by the randomized equivalence fuzz in
// tests/mc_simd_sampler_test.cpp.  NOT stream-compatible with the xoshiro
// samplers above: fast-simd results are their own pinned contract,
// bit-identical across thread counts and SIMD dispatch levels but not
// comparable per-seed to the `exact` engine.
// ---------------------------------------------------------------------------

/// Counters one version-pair of `u` consumes (the D above): a pure function
/// of the universe layout.
[[nodiscard]] std::uint64_t counter_draws_per_pair(const core::fault_universe& u);

/// The pinned reference: sample version-pair `pair_index` of counter stream
/// `key` into (a, b), exactly as specified above.  Scalar, one decision at a
/// time — correctness anchor, not a fast path.
void sample_version_pair_counter_reference(const core::fault_universe& u,
                                           std::uint64_t key, std::uint64_t pair_index,
                                           core::fault_mask& a, core::fault_mask& b);

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
