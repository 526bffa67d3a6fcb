#pragma once
// Raw-word forms of the dispatched kernels, shared by simd_sampler.cpp (the
// portable TU: dispatch, argument checks, the per-lane record and the scalar
// levels) and simd_sampler.avx2.cpp (the only TU allowed intrinsics: the
// AVX2 levels and, under a function-level AVX-512 target, the AVX-512
// levels).
//
// The counter pair step hands each mask word of the lanes, as it leaves its
// draw loop, to a sink: the step's sink adds the word's faults into θ1 and
// θ2, and the batch's stores the word into `words`, lane-major (word b of
// channel c of lane l at words[(c·W + b)·kXoshiroLanes + l], W the mask's
// word count).  The xoshiro pair step takes the core::xoshiro_lane_tables:
// the scalar and AVX2 levels compare (draw >> 11) against its 53-bit tables,
// the AVX-512 level the raw draw against the shifted tables, OR-ing in the
// per-word saturated masks.  It keeps the hits of the channels before the
// last in `hits` (hit_bytes()): one byte per fault at AVX-512 (bit l: lane
// l's hit), four lanes' masks per fault at AVX2, and one lane's channels at
// the scalar level, which draws a lane's channels word by word as the scalar
// reference does and then records them with the per-lane record.
//
// Every step has one kernel per level and no template shared across levels
// (within a level, the counter step and the batch share one draw): the scalar
// level walks the live lanes one after another, the AVX2 level runs all eight
// lanes in two registers of four and the AVX-512 level in one register.  The
// two steps share one epilogue per level (the record_pair* helpers).  The
// level-invariant pieces are the inline helpers below (the counter draw's
// zero, one and slice words, the pair step's layer count) and the portable
// wrappers in simd_sampler.cpp (the argument checks and the Welford
// factors).
//
// Every definition of the six pair steps below, the fallbacks of a build
// without AVX2 included, carries __attribute__((aligned(64))), so where the
// linker places a step never moves its loops against cache lines: perfbench
// once read 4 % slower on a build whose unrelated objects had pushed the
// AVX-512 steps to 48 mod 64.  An attribute in the source holds in every
// build, including ones that do not read the top-level CMake flags.

#include <algorithm>
#include <bit>

#include "core/simd_sampler.hpp"
#include "stats/counter_rng.hpp"

namespace reldiv::core::detail {

/// The lane-invariant factors of one stats::running_moments::add step, for
/// live lanes that all hold `before` samples.  The dispatched steps compute
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

/// Layers of hits the pair step keeps for the channels before the last:
/// layer j holds the faults seen in >= j + 1 of them, and only layers below
/// min(votes, versions - 1) can be non-empty when the last channel is drawn.
/// At least one: channel 0 always stores its hits in layer 0, and the
/// AVX-512 level stores the defeated set there too, for the OR that finds
/// the lanes holding any.
inline unsigned hit_layers(unsigned versions, unsigned votes) noexcept {
  return std::max(1u, std::min(votes, versions - 1));
}

/// Bytes of the pair step's hits for n faults at `level`: hit_layers()
/// layers of one byte per fault at AVX-512 (bit l: lane l's hit) and of four
/// lanes' 64-bit masks per fault at AVX2, whose two halves run one after the
/// other over the same layers; at the scalar level, the words of one lane's
/// `versions` channels.
inline std::size_t hit_bytes(unsigned versions, unsigned votes, std::size_t n,
                             simd_level level) noexcept {
  switch (level) {
    case simd_level::avx512:
      return hit_layers(versions, votes) * n;
    case simd_level::avx2:
      return hit_layers(versions, votes) * n * 4 * sizeof(std::uint64_t);
    case simd_level::scalar:
      break;
  }
  return versions * fault_mask::words_needed(n) * sizeof(std::uint64_t);
}

/// Raw form of core::xoshiro_pair_step_lanes, which has checked its
/// arguments: the tables hold n faults, `hits` holds hit_bytes(versions,
/// votes, n, level) bytes, 64-byte aligned (the
/// byte and vector levels read its words through their own types), q holds n
/// values, 1 <= votes <= versions <= kMaxFoldVersions and live <=
/// kXoshiroLanes; `thetas` may be null.  Defined in simd_sampler.cpp
/// (scalar) and simd_sampler.avx2.cpp (AVX2, AVX-512).
void xoshiro_pair_step_scalar(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                              std::uint64_t* hits, accumulator_lanes& acc, unsigned versions,
                              unsigned votes, double omega, const double* q, std::size_t n,
                              unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept;
void xoshiro_pair_step_avx2(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                            std::uint64_t* hits, accumulator_lanes& acc, unsigned versions,
                            unsigned votes, double omega, const double* q, std::size_t n,
                            unsigned live, const welford_step& step,
                            pair_thetas* thetas) noexcept;
void xoshiro_pair_step_avx512(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                              std::uint64_t* hits, accumulator_lanes& acc, unsigned versions,
                              unsigned votes, double omega, const double* q, std::size_t n,
                              unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept;

/// One word of 64 Bernoulli(threshold / 2^53) lanes via the bit-slice
/// recurrence over the counter stream: with the threshold's binary digits
/// b_52..b_0 (weight of b_j is 2^(j-53)), folding fresh draws from the
/// lowest set digit upward via acc = b_j ? (acc | draw) : (acc & draw)
/// leaves every lane set with probability threshold / 2^53.  Consumes the
/// counters [base, base + 53 - countr_zero(threshold)), ascending; requires
/// threshold in (0, 2^53).  Shared scalar code at every level — the
/// recurrence already yields 64 lanes per fold step, so there is nothing
/// for SIMD to win here.
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

/// Raw form of core::counter_pair_step_lanes, which has checked its
/// arguments: `keys` holds kXoshiroLanes keys, the thresholds and q hold
/// plan.bits values and live <= kXoshiroLanes; `thetas` may be null.  A
/// vector level may load and draw the keys of spare lanes but neither sums
/// nor records them.  Defined in simd_sampler.cpp (scalar) and
/// simd_sampler.avx2.cpp (AVX2, AVX-512).
void counter_pair_step_scalar(const counter_sample_plan& plan, const std::uint64_t* t32,
                              const std::uint64_t* t53, const std::uint64_t* keys,
                              std::uint64_t pair_index, accumulator_lanes& acc,
                              const double* q, unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept;
void counter_pair_step_avx2(const counter_sample_plan& plan, const std::uint64_t* t32,
                            const std::uint64_t* t53, const std::uint64_t* keys,
                            std::uint64_t pair_index, accumulator_lanes& acc, const double* q,
                            unsigned live, const welford_step& step,
                            pair_thetas* thetas) noexcept;
void counter_pair_step_avx512(const counter_sample_plan& plan, const std::uint64_t* t32,
                              const std::uint64_t* t53, const std::uint64_t* keys,
                              std::uint64_t pair_index, accumulator_lanes& acc,
                              const double* q, unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept;

/// The same draw with every word stored instead of summed: word b of
/// version a (c = 0) and b (c = 1) of lane l at words[(c·W + b)·kXoshiroLanes
/// + l], W = plan.words.size(); the words of lanes >= live are left as they
/// were or written as zero.  Defined beside the steps.
void counter_pair_words_scalar(const counter_sample_plan& plan, const std::uint64_t* t32,
                               const std::uint64_t* t53, const std::uint64_t* keys,
                               std::uint64_t pair_index, std::uint64_t* words,
                               unsigned live) noexcept;
void counter_pair_words_avx2(const counter_sample_plan& plan, const std::uint64_t* t32,
                             const std::uint64_t* t53, const std::uint64_t* keys,
                             std::uint64_t pair_index, std::uint64_t* words,
                             unsigned live) noexcept;
void counter_pair_words_avx512(const counter_sample_plan& plan, const std::uint64_t* t32,
                               const std::uint64_t* t53, const std::uint64_t* keys,
                               std::uint64_t pair_index, std::uint64_t* words,
                               unsigned live) noexcept;

/// Word `blk` of every live lane when its kind draws no per-fault compares:
/// zero and one words are constants and slice words run per lane
/// (counter_slice_word from `base` for a, base + slice_cost for b), each
/// masked to the word's occupancy so the tail bits of a partial last word
/// stay clear.  Lane l's words go to a_row[l] and b_row[l].  Returns false,
/// writing nothing, for paired32 and wide53 words, which each level draws in
/// its own registers and whose compares set no bit past the occupancy.
inline bool counter_word_per_lane(const counter_word_plan& w, const std::uint64_t* keys,
                                  std::uint64_t base, std::uint64_t* a_row,
                                  std::uint64_t* b_row, unsigned live) noexcept {
  const std::uint64_t valid =
      w.occupancy == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w.occupancy) - 1;
  switch (w.kind) {
    case counter_word_kind::zero:
    case counter_word_kind::one: {
      const std::uint64_t v = w.kind == counter_word_kind::one ? valid : 0;
      for (unsigned l = 0; l < live; ++l) a_row[l] = b_row[l] = v;
      return true;
    }
    case counter_word_kind::slice:
      for (unsigned l = 0; l < live; ++l) {
        a_row[l] = counter_slice_word(keys[l], base, w.threshold) & valid;
        b_row[l] = counter_slice_word(keys[l], base + w.slice_cost, w.threshold) & valid;
      }
      return true;
    case counter_word_kind::paired32:
    case counter_word_kind::wide53:
      break;
  }
  return false;
}

}  // namespace reldiv::core::detail
