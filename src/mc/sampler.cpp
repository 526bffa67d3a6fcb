#include "mc/sampler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "stats/counter_rng.hpp"

namespace reldiv::mc {

namespace {

inline void ensure_sized(core::fault_mask& m, std::size_t bits) {
  if (m.bit_size() != bits) m.resize(bits);
}

}  // namespace

void sample_mask_from_thresholds(std::span<const std::uint64_t> thresholds,
                                 stats::rng& r, core::fault_mask& out) {
  const std::size_t n = thresholds.size();
  ensure_sized(out, n);
  const std::uint64_t* t = thresholds.data();
  std::uint64_t* words = out.words();
  std::size_t i = 0;
  for (std::size_t blk = 0; blk < out.word_count(); ++blk) {
    std::uint64_t w = 0;
    const std::size_t hi = std::min<std::size_t>(n, i + 64);
    for (std::size_t k = 0; i < hi; ++i, ++k) {
      w |= static_cast<std::uint64_t>((r() >> 11) < t[i]) << k;
    }
    words[blk] = w;
  }
}

void sample_version_mask(const core::fault_universe& u, stats::rng& r,
                         core::fault_mask& out) {
  sample_mask_from_thresholds(u.bernoulli_thresholds(), r, out);
}

std::uint64_t counter_draws_per_pair(const core::fault_universe& u) {
  const auto blocks = u.sample_blocks();
  const bool grid_safe = u.fast32_grid_safe();
  const std::size_t n = u.size();
  std::uint64_t draws = 0;
  for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
    const std::size_t lo = blk << 6;
    const std::size_t occupancy = std::min<std::size_t>(n, lo + 64) - lo;
    const core::sample_block& plan = blocks[blk];
    if (plan.sliceable) {
      if (plan.threshold != 0 &&
          plan.threshold != (std::uint64_t{1} << core::kBernoulliBits)) {
        draws += 2 * static_cast<std::uint64_t>(core::kBernoulliBits -
                                                std::countr_zero(plan.threshold));
      }
    } else if (grid_safe) {
      draws += occupancy;
    } else {
      draws += 2 * occupancy;
    }
  }
  return draws;
}

namespace {

/// One word of 64 Bernoulli(threshold / 2^53) lanes via the bit-slice
/// recurrence: with the threshold's binary digits b_52..b_0 (weight of b_j
/// is 2^(j-53)), folding fresh draws from the lowest set digit upward via
/// acc = b_j ? (acc | draw) : (acc & draw) leaves every lane set with
/// probability threshold / 2^53.  Consumes the `cost` = 53 -
/// countr_zero(threshold) counters starting at `base`, ascending.  Requires
/// threshold in (0, 2^53).
inline std::uint64_t counter_slice_word(std::uint64_t key, std::uint64_t base,
                                        std::uint64_t threshold) noexcept {
  const int low = std::countr_zero(threshold);
  std::uint64_t c = base;
  std::uint64_t acc = stats::counter_draw(key, c++);
  for (int j = low + 1; j < core::kBernoulliBits; ++j) {
    const std::uint64_t r = stats::counter_draw(key, c++);
    acc = ((threshold >> j) & 1) ? (acc | r) : (acc & r);
  }
  return acc;
}

}  // namespace

void sample_version_pair_counter_reference(const core::fault_universe& u,
                                           std::uint64_t key, std::uint64_t pair_index,
                                           core::fault_mask& a, core::fault_mask& b) {
  const std::size_t n = u.size();
  ensure_sized(a, n);
  ensure_sized(b, n);
  if (n == 0) return;
  const auto blocks = u.sample_blocks();
  const bool grid_safe = u.fast32_grid_safe();
  const std::uint64_t* t32 = u.bernoulli_thresholds32().data();
  const std::uint64_t* t53 = u.bernoulli_thresholds().data();
  std::uint64_t* wa = a.words();
  std::uint64_t* wb = b.words();
  std::uint64_t counter = pair_index * counter_draws_per_pair(u);
  for (std::size_t blk = 0; blk < a.word_count(); ++blk) {
    const core::sample_block& plan = blocks[blk];
    const std::size_t lo = blk << 6;
    const std::size_t hi = std::min<std::size_t>(n, lo + 64);
    if (plan.sliceable) {
      if (plan.threshold == 0) {
        wa[blk] = 0;
        wb[blk] = 0;
      } else if (plan.threshold == (std::uint64_t{1} << core::kBernoulliBits)) {
        wa[blk] = ~std::uint64_t{0};
        wb[blk] = ~std::uint64_t{0};
      } else {
        const std::uint64_t cost = static_cast<std::uint64_t>(
            core::kBernoulliBits - std::countr_zero(plan.threshold));
        wa[blk] = counter_slice_word(key, counter, plan.threshold);
        wb[blk] = counter_slice_word(key, counter + cost, plan.threshold);
        counter += 2 * cost;
      }
    } else if (grid_safe) {
      std::uint64_t word_a = 0;
      std::uint64_t word_b = 0;
      for (std::size_t i = lo, k = 0; i < hi; ++i, ++k) {
        const std::uint64_t x = stats::counter_draw(key, counter++);
        word_a |= static_cast<std::uint64_t>((x >> 32) < t32[i]) << k;
        word_b |= static_cast<std::uint64_t>((x & 0xffffffffULL) < t32[i]) << k;
      }
      wa[blk] = word_a;
      wb[blk] = word_b;
    } else {
      std::uint64_t word_a = 0;
      std::uint64_t word_b = 0;
      for (std::size_t i = lo, k = 0; i < hi; ++i, ++k) {
        word_a |= static_cast<std::uint64_t>(
                      (stats::counter_draw(key, counter++) >> 11) < t53[i])
                  << k;
      }
      for (std::size_t i = lo, k = 0; i < hi; ++i, ++k) {
        word_b |= static_cast<std::uint64_t>(
                      (stats::counter_draw(key, counter++) >> 11) < t53[i])
                  << k;
      }
      wa[blk] = word_a;
      wb[blk] = word_b;
    }
  }
  wa[a.word_count() - 1] &= a.tail_mask();
  wb[b.word_count() - 1] &= b.tail_mask();
}

double pfd_of(const core::fault_mask& v, const core::fault_universe& u) {
  if (v.bit_size() != u.size()) {
    throw std::invalid_argument("pfd_of: mask size does not match universe");
  }
  return core::masked_q_sum(v, u.q_array());
}

core::pair_intersection_result pair_pfd_stats(const core::fault_mask& a,
                                              const core::fault_mask& b,
                                              const core::fault_universe& u) {
  if (a.bit_size() != u.size() || b.bit_size() != u.size()) {
    throw std::invalid_argument("pair_pfd_stats: mask size does not match universe");
  }
  return core::intersect_q_sum(a, b, u.q_array());
}

double pair_pfd(const core::fault_mask& a, const core::fault_mask& b,
                const core::fault_universe& u) {
  return pair_pfd_stats(a, b, u).pfd;
}

double tuple_pfd(std::span<const core::fault_mask> versions,
                 const core::fault_universe& u, core::fault_mask& scratch) {
  if (versions.empty()) throw std::invalid_argument("tuple_pfd: empty tuple");
  for (const auto& v : versions) {
    if (v.bit_size() != u.size()) {
      throw std::invalid_argument("tuple_pfd: mask size does not match universe");
    }
  }
  if (scratch.bit_size() != u.size()) scratch.resize(u.size());
  const core::fault_mask* acc = &versions.front();
  if (versions.size() > 1) {
    scratch.intersect(versions[0], versions[1]);
    for (std::size_t k = 2; k < versions.size(); ++k) scratch &= versions[k];
    acc = &scratch;
  }
  return core::masked_q_sum(*acc, u.q_array());
}

}  // namespace reldiv::mc
