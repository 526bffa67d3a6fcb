#pragma once
// Raw-word forms of the dispatched kernels, shared by simd_sampler.cpp (the
// portable TU: dispatch, argument checks and the scalar levels) and
// simd_sampler.avx2.cpp (the only TU allowed intrinsics: the AVX2 levels
// and, under a function-level AVX-512 target, the AVX-512 levels).
//
// The counter kernel and the fold read or write the raw words of a
// core::lane_block: channel v's word b of lane l at block[(v·W + b)·
// kXoshiroLanes + l], every row of kXoshiroLanes words 64-byte aligned.  The
// counter kernel writes only the lanes below `live` of the rows it draws, and
// the fold reads only those lanes.  The xoshiro pair step takes the
// core::xoshiro_lane_tables: the scalar and AVX2 levels compare (draw >> 11)
// against its 53-bit tables, the AVX-512 level the raw draw against the
// shifted tables, OR-ing in the per-word saturated masks.  It keeps the hits
// of the channels before the last in `hits` (hit_bytes()): one byte per
// fault at AVX-512 (bit l: lane l's hit), four lanes' masks per fault at
// AVX2, and one lane's words at the scalar level, which draws a lane's
// channels word by word as the scalar reference does and then folds them as
// the scalar fold does.
//
// Every family has one kernel per level and no shared template: the scalar
// level walks the live lanes one after another, the AVX2 level runs all eight
// lanes in two registers of four and the AVX-512 level in one register,
// storing or loading a row at a time under the live-lane mask.  The fold and
// the pair step share one epilogue per level (the record_pair* helpers).
// The level-invariant pieces are the inline helpers below (the counter
// kernel's zero, one and slice words, the pair step's layer count) and the
// portable wrappers in simd_sampler.cpp (the argument checks and the Welford
// factors).

#include <algorithm>
#include <bit>

#include "core/simd_sampler.hpp"
#include "stats/counter_rng.hpp"

namespace reldiv::core::detail {

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

/// Unchecked form of core::fold_pair_lanes, which has checked its arguments:
/// `block` holds `versions` channels of n bits, lane-major, and q holds n
/// values; only lanes below `live` of its rows are read.  Requires 1 <= votes
/// <= versions <= kMaxFoldVersions and live <= kXoshiroLanes; `thetas` may be
/// null.  Defined in simd_sampler.cpp (scalar) and simd_sampler.avx2.cpp
/// (AVX2, AVX-512).
void fold_pair_lanes_scalar(accumulator_lanes& acc, const std::uint64_t* block,
                            unsigned versions, unsigned votes, double omega,
                            const double* q, std::size_t n, unsigned live,
                            const welford_step& step, pair_thetas* thetas) noexcept;
void fold_pair_lanes_avx2(accumulator_lanes& acc, const std::uint64_t* block,
                          unsigned versions, unsigned votes, double omega, const double* q,
                          std::size_t n, unsigned live, const welford_step& step,
                          pair_thetas* thetas) noexcept;
void fold_pair_lanes_avx512(accumulator_lanes& acc, const std::uint64_t* block,
                            unsigned versions, unsigned votes, double omega,
                            const double* q, std::size_t n, unsigned live,
                            const welford_step& step, pair_thetas* thetas) noexcept;

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
/// other over the same layers; at the scalar level, one lane's words, in
/// hit_layers() layers and one more row that keeps channel 0's words.
inline std::size_t hit_bytes(unsigned versions, unsigned votes, std::size_t n,
                             simd_level level) noexcept {
  const std::size_t layers = hit_layers(versions, votes);
  switch (level) {
    case simd_level::avx512:
      return layers * n;
    case simd_level::avx2:
      return layers * n * 4 * sizeof(std::uint64_t);
    case simd_level::scalar:
      break;
  }
  return (layers + 1) * fault_mask::words_needed(n) * sizeof(std::uint64_t);
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

/// Raw-word form of core::sample_pair_counter_lanes: `keys` holds
/// kXoshiroLanes keys, and `a` / `b` point at the rows of channel 0 / 1 of a
/// block of plan.bits bits; live <= kXoshiroLanes.  A vector level may load
/// the keys of spare lanes but ignores them; no word past live is written.
/// Defined in simd_sampler.cpp (scalar) and simd_sampler.avx2.cpp (AVX2,
/// AVX-512).
void sample_pair_counter_lanes_scalar(const counter_sample_plan& plan,
                                      const std::uint64_t* t32, const std::uint64_t* t53,
                                      const std::uint64_t* keys, std::uint64_t pair_index,
                                      std::uint64_t* a, std::uint64_t* b,
                                      unsigned live) noexcept;
void sample_pair_counter_lanes_avx2(const counter_sample_plan& plan,
                                    const std::uint64_t* t32, const std::uint64_t* t53,
                                    const std::uint64_t* keys, std::uint64_t pair_index,
                                    std::uint64_t* a, std::uint64_t* b,
                                    unsigned live) noexcept;
void sample_pair_counter_lanes_avx512(const counter_sample_plan& plan,
                                      const std::uint64_t* t32, const std::uint64_t* t53,
                                      const std::uint64_t* keys, std::uint64_t pair_index,
                                      std::uint64_t* a, std::uint64_t* b,
                                      unsigned live) noexcept;

/// Word `blk` of every live lane when its kind draws no per-fault compares:
/// zero and one words are constants and slice words run per lane
/// (counter_slice_word from `base` for a, base + slice_cost for b), each
/// masked to the word's occupancy so the tail bits of a partial last word
/// stay clear.  a_row / b_row are the word's rows.  Returns false, writing
/// nothing, for paired32 and wide53 words, which each level draws in its own
/// registers and whose compares set no bit past the occupancy.
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
