#pragma once
// Shared kernel template of the fast-simd sampler: simd_sampler.cpp
// instantiates it with scalar word ops, simd_sampler.avx2.cpp (the only TU
// allowed intrinsics) with AVX2 word ops and, under a function-level AVX-512
// target, with AVX-512 word ops — "a scalar fallback compiled from the same
// template".  The template owns everything level-invariant: plan walking,
// counter bookkeeping, batch iteration order, bit-slice words and tail
// masking.  An Ops type supplies the two per-word hot kernels:
//
//   static void paired32_word(key, base, t32, occ, &wa, &wb)
//     one counter_draw per fault k in [0, occ): bit k of wa from the high
//     32 bits vs t32[k], bit k of wb from the low 32 bits;
//   static std::uint64_t wide53_word(key, base, t53, occ)
//     one counter_draw per fault: bit k set iff (draw >> 11) < t53[k].
//
// Both must make exactly the decisions mc::sample_version_pair_counter_
// reference makes (the pinned contract) — the SIMD ops achieve this by
// evaluating the identical counter_draw arithmetic four (AVX2) or eight
// (AVX-512) lanes at a time.
//
// Batch iteration is word-major over pairs: each word's plan entry and
// thresholds are loaded once and applied to every pair in the batch, which
// is where batching amortizes generation overhead.
//
// The xoshiro lane kernel has no shared template: its scalar level walks the
// live lanes one after another, its AVX2 level advances all eight lanes in
// two registers of four and its AVX-512 level in one register, writing back
// only the live ones.  Every level takes the raw-word form below, which
// core::sample_mixture_lanes calls after sizing the masks.  The lane fold is
// built the same way: a scalar level per lane, an AVX2 level per half of
// four lanes and an AVX-512 level over all eight, each reading the masks'
// raw words.

#include <bit>

#include "core/simd_sampler.hpp"
#include "stats/counter_rng.hpp"

namespace reldiv::core::detail {

/// Raw-word form of core::sample_mixture_lanes: `stressed` and `relaxed` hold
/// n thresholds each; out[l] points at fault_mask::words_needed(n) words of
/// lane l's mask for l < live (live <= kXoshiroLanes; out[l] for l >= live
/// is never touched).  Defined in simd_sampler.cpp (scalar) and
/// simd_sampler.avx2.cpp (AVX2, AVX-512).
void sample_mixture_lanes_scalar(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                                 const std::uint64_t* stressed,
                                 const std::uint64_t* relaxed, std::size_t n,
                                 std::uint64_t* const* out, unsigned live) noexcept;
void sample_mixture_lanes_avx2(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                               const std::uint64_t* stressed,
                               const std::uint64_t* relaxed, std::size_t n,
                               std::uint64_t* const* out, unsigned live) noexcept;
void sample_mixture_lanes_avx512(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                                 const std::uint64_t* stressed,
                                 const std::uint64_t* relaxed, std::size_t n,
                                 std::uint64_t* const* out, unsigned live) noexcept;

/// The lane-invariant factors of one stats::running_moments::add step, for
/// live lanes that all hold `before` samples.  core::fold_pair_lanes computes
/// them in the portable TU: inside the AVX-512 target GCC may fuse a scalar
/// n * n - 3.0 * n into an FMA (avx512f implies fma), which would move their
/// last bits in a build without -ffp-contract=off.
struct welford_step {
  double n0 = 0.0;       ///< (double)before
  double n = 0.0;        ///< (double)(before + 1)
  double quartic = 0.0;  ///< n * n - 3.0 * n + 3.0, the m4 update's factor
  double cubic = 0.0;    ///< n - 2.0, the m3 update's factor
  bool first = false;    ///< before == 0: min and max start at the value
};

/// One lane mask per 64-bit lane: a channel of a fold step.
using lane_masks = std::array<fault_mask, kXoshiroLanes>;

/// Unchecked form of core::fold_pair_lanes, which has checked its arguments:
/// channels[v][l] for v < versions and l < live has n bits (no other mask is
/// read) and q holds n values; each level reads the masks' words through
/// fault_mask::words().  Requires 1 <= votes <= versions <= kMaxFoldVersions and live <=
/// kXoshiroLanes.  Defined in simd_sampler.cpp (scalar) and
/// simd_sampler.avx2.cpp (AVX2, AVX-512).
void fold_pair_lanes_scalar(accumulator_lanes& acc, const lane_masks* channels,
                            unsigned versions, unsigned votes, double omega,
                            const double* q, std::size_t n, unsigned live,
                            const welford_step& step) noexcept;
void fold_pair_lanes_avx2(accumulator_lanes& acc, const lane_masks* channels,
                          unsigned versions, unsigned votes, double omega, const double* q,
                          std::size_t n, unsigned live, const welford_step& step) noexcept;
void fold_pair_lanes_avx512(accumulator_lanes& acc, const lane_masks* channels,
                            unsigned versions, unsigned votes, double omega,
                            const double* q, std::size_t n, unsigned live,
                            const welford_step& step) noexcept;

/// Bit-slice Bernoulli word over the counter stream (identical fold order to
/// the reference): consumes counters [base, base + 53 - countr_zero(t)).
/// Shared scalar code at every level — the recurrence already yields 64
/// lanes per fold step, so there is nothing for SIMD to win here.
inline std::uint64_t counter_slice_word(std::uint64_t key, std::uint64_t base,
                                        std::uint64_t threshold) noexcept {
  const int low = std::countr_zero(threshold);
  std::uint64_t c = base;
  std::uint64_t acc = stats::counter_draw(key, c++);
  for (int j = low + 1; j < kBernoulliBits; ++j) {
    const std::uint64_t r = stats::counter_draw(key, c++);
    acc = ((threshold >> j) & 1) ? (acc | r) : (acc & r);
  }
  return acc;
}

template <class Ops>
void sample_pair_counter_batch_impl(const counter_sample_plan& plan,
                                    std::span<const std::uint64_t> t32,
                                    std::span<const std::uint64_t> t53,
                                    std::uint64_t key, std::uint64_t first_pair,
                                    std::size_t count, std::span<fault_mask> a,
                                    std::span<fault_mask> b) {
  for (std::size_t j = 0; j < count; ++j) {
    if (a[j].bit_size() != plan.bits) a[j].resize(plan.bits);
    if (b[j].bit_size() != plan.bits) b[j].resize(plan.bits);
  }
  if (plan.bits == 0) return;
  for (std::size_t blk = 0; blk < plan.words.size(); ++blk) {
    const counter_word_plan& w = plan.words[blk];
    const std::uint64_t* t32w = t32.data() + (blk << 6);
    const std::uint64_t* t53w = t53.data() + (blk << 6);
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t base =
          (first_pair + j) * plan.draws_per_pair + w.draw_offset;
      std::uint64_t wa = 0;
      std::uint64_t wb = 0;
      switch (w.kind) {
        case counter_word_kind::zero:
          break;
        case counter_word_kind::one:
          wa = ~std::uint64_t{0};
          wb = ~std::uint64_t{0};
          break;
        case counter_word_kind::slice:
          wa = counter_slice_word(key, base, w.threshold);
          wb = counter_slice_word(key, base + w.slice_cost, w.threshold);
          break;
        case counter_word_kind::paired32:
          Ops::paired32_word(key, base, t32w, w.occupancy, wa, wb);
          break;
        case counter_word_kind::wide53:
          wa = Ops::wide53_word(key, base, t53w, w.occupancy);
          wb = Ops::wide53_word(key, base + w.occupancy, t53w, w.occupancy);
          break;
      }
      a[j].words()[blk] = wa;
      b[j].words()[blk] = wb;
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    a[j].words()[a[j].word_count() - 1] &= a[j].tail_mask();
    b[j].words()[b[j].word_count() - 1] &= b[j].tail_mask();
  }
}

/// Portable per-word ops: the scalar fallback instantiation.
struct scalar_word_ops {
  static void paired32_word(std::uint64_t key, std::uint64_t base,
                            const std::uint64_t* t32, unsigned occ,
                            std::uint64_t& wa, std::uint64_t& wb) noexcept {
    std::uint64_t word_a = 0;
    std::uint64_t word_b = 0;
    for (unsigned k = 0; k < occ; ++k) {
      const std::uint64_t x = stats::counter_draw(key, base + k);
      word_a |= static_cast<std::uint64_t>((x >> 32) < t32[k]) << k;
      word_b |= static_cast<std::uint64_t>((x & 0xffffffffULL) < t32[k]) << k;
    }
    wa = word_a;
    wb = word_b;
  }

  static std::uint64_t wide53_word(std::uint64_t key, std::uint64_t base,
                                   const std::uint64_t* t53,
                                   unsigned occ) noexcept {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < occ; ++k) {
      w |= static_cast<std::uint64_t>(
               (stats::counter_draw(key, base + k) >> 11) < t53[k])
           << k;
    }
    return w;
  }
};

}  // namespace reldiv::core::detail
