// SIMD dispatch, fast-simd plan construction, and the scalar level of both
// kernel families.  The AVX2 and AVX-512 levels live in simd_sampler.avx2.cpp
// (the one TU compiled with -mavx2, its AVX-512 functions under a
// function-level target attribute); this TU stays portable and decides at
// runtime which one runs.

#include "core/simd_sampler.inl.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace reldiv::core {

namespace detail {
// Defined in simd_sampler.avx2.cpp.  When that TU was compiled without AVX2
// support (non-x86 arch or a compiler without -mavx2) it forwards to the
// scalar template and avx2_compiled() reports false, so dispatch never
// claims a level it cannot deliver.
bool avx2_compiled() noexcept;
void sample_pair_counter_batch_avx2(const counter_sample_plan& plan,
                                    std::span<const std::uint64_t> t32,
                                    std::span<const std::uint64_t> t53,
                                    std::uint64_t key, std::uint64_t first_pair,
                                    std::size_t count, std::span<fault_mask> a,
                                    std::span<fault_mask> b);
void sample_pair_counter_batch_avx512(const counter_sample_plan& plan,
                                      std::span<const std::uint64_t> t32,
                                      std::span<const std::uint64_t> t53,
                                      std::uint64_t key, std::uint64_t first_pair,
                                      std::size_t count, std::span<fault_mask> a,
                                      std::span<fault_mask> b);
}  // namespace detail

namespace {

/// Programmatic cap (tests/benches).  Stored +1 so 0 means "no cap".
std::atomic<std::uint8_t> g_level_cap{0};

simd_level env_level_cap() noexcept {
  // Read once: the override is a process-wide throughput knob, like thread
  // count.  Results are bit-identical across levels either way.
  static const simd_level cap = [] {
    const char* env = std::getenv("RELDIV_SIMD");
    if (env != nullptr) {
      const std::string_view v(env);
      if (v == "off" || v == "scalar" || v == "0") return simd_level::scalar;
      if (v == "avx2") return simd_level::avx2;
    }
    return simd_level::avx512;  // no cap (never raises above detected)
  }();
  return cap;
}

}  // namespace

const char* simd_level_name(simd_level level) noexcept {
  switch (level) {
    case simd_level::scalar:
      return "scalar";
    case simd_level::avx2:
      return "avx2";
    case simd_level::avx512:
      return "avx512";
  }
  return "unknown";
}

simd_level detected_simd_level() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const simd_level level = [] {
    if (__builtin_cpu_supports("avx2") == 0 || !detail::avx2_compiled()) {
      return simd_level::scalar;
    }
    // The target set of the AVX-512 kernels (RELDIV_AVX512).
    const bool avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                        __builtin_cpu_supports("avx512dq") != 0 &&
                        __builtin_cpu_supports("avx512bw") != 0;
    return avx512 ? simd_level::avx512 : simd_level::avx2;
  }();
  return level;
#else
  return simd_level::scalar;
#endif
}

simd_level active_simd_level() noexcept {
  simd_level level = detected_simd_level();
  const simd_level env_cap = env_level_cap();
  if (env_cap < level) level = env_cap;
  const std::uint8_t cap = g_level_cap.load(std::memory_order_relaxed);
  if (cap != 0 && static_cast<simd_level>(cap - 1) < level) {
    level = static_cast<simd_level>(cap - 1);
  }
  return level;
}

void set_simd_level_cap(simd_level cap) noexcept {
  g_level_cap.store(static_cast<std::uint8_t>(static_cast<std::uint8_t>(cap) + 1),
                    std::memory_order_relaxed);
}

void clear_simd_level_cap() noexcept {
  g_level_cap.store(0, std::memory_order_relaxed);
}

counter_sample_plan make_counter_sample_plan(const fault_universe& u) {
  // Derives word kinds from sample_blocks + fast32_grid_safe by the SAME
  // rules as mc::sample_version_pair_counter_reference (the pinned
  // contract); the equivalence fuzz in tests/mc_simd_sampler_test.cpp keeps
  // the two derivations from drifting apart.
  counter_sample_plan plan;
  plan.bits = u.size();
  const auto blocks = u.sample_blocks();
  const bool grid_safe = u.fast32_grid_safe();
  plan.words.reserve(blocks.size());
  std::uint64_t offset = 0;
  for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
    const std::size_t lo = blk << 6;
    const std::size_t occupancy = std::min<std::size_t>(u.size(), lo + 64) - lo;
    const sample_block& b = blocks[blk];
    counter_word_plan w;
    w.occupancy = static_cast<std::uint8_t>(occupancy);
    w.draw_offset = static_cast<std::uint32_t>(offset);
    if (b.sliceable) {
      if (b.threshold == 0) {
        w.kind = counter_word_kind::zero;
      } else if (b.threshold == (std::uint64_t{1} << kBernoulliBits)) {
        w.kind = counter_word_kind::one;
      } else {
        w.kind = counter_word_kind::slice;
        w.threshold = b.threshold;
        w.slice_cost = static_cast<std::uint8_t>(kBernoulliBits -
                                                 std::countr_zero(b.threshold));
        offset += 2 * static_cast<std::uint64_t>(w.slice_cost);
      }
    } else if (grid_safe) {
      w.kind = counter_word_kind::paired32;
      offset += occupancy;
    } else {
      w.kind = counter_word_kind::wide53;
      offset += 2 * occupancy;
    }
    plan.words.push_back(w);
  }
  plan.draws_per_pair = offset;
  return plan;
}

void sample_pair_counter_batch(const counter_sample_plan& plan,
                               const fault_universe& u, std::uint64_t key,
                               std::uint64_t first_pair, std::size_t count,
                               std::span<fault_mask> a, std::span<fault_mask> b,
                               simd_level level) {
  if (plan.bits != u.size() || plan.words.size() != u.mask_words()) {
    throw std::invalid_argument(
        "sample_pair_counter_batch: plan does not match universe");
  }
  if (a.size() < count || b.size() < count) {
    throw std::invalid_argument(
        "sample_pair_counter_batch: mask spans shorter than batch");
  }
  switch (level) {
    case simd_level::avx512:
      detail::sample_pair_counter_batch_avx512(plan, u.bernoulli_thresholds32(),
                                               u.bernoulli_thresholds(), key,
                                               first_pair, count, a, b);
      return;
    case simd_level::avx2:
      detail::sample_pair_counter_batch_avx2(plan, u.bernoulli_thresholds32(),
                                             u.bernoulli_thresholds(), key,
                                             first_pair, count, a, b);
      return;
    case simd_level::scalar:
      break;
  }
  detail::sample_pair_counter_batch_impl<detail::scalar_word_ops>(
      plan, u.bernoulli_thresholds32(), u.bernoulli_thresholds(), key,
      first_pair, count, a, b);
}

void sample_pair_counter(const counter_sample_plan& plan, const fault_universe& u,
                         std::uint64_t key, std::uint64_t pair_index, fault_mask& a,
                         fault_mask& b, simd_level level) {
  sample_pair_counter_batch(plan, u, key, pair_index, 1, std::span<fault_mask>(&a, 1),
                            std::span<fault_mask>(&b, 1), level);
}

namespace detail {

void sample_mixture_lanes_scalar(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                                 const std::uint64_t* stressed,
                                 const std::uint64_t* relaxed, std::size_t n,
                                 std::uint64_t* const* out, unsigned live) noexcept {
  // Each live lane in turn, word by word exactly as
  // mc::sample_mask_from_thresholds fills a mask.
  for (unsigned l = 0; l < live; ++l) {
    stats::rng r = lanes.lane(l);
    const std::uint64_t* t = (r() >> 11) < stress_threshold ? stressed : relaxed;
    std::uint64_t* words = out[l];
    std::size_t i = 0;
    for (std::size_t blk = 0; i < n; ++blk) {
      const std::size_t hi = std::min<std::size_t>(n, i + 64);
      std::uint64_t w = 0;
      for (unsigned k = 0; i < hi; ++i, ++k) {
        w |= static_cast<std::uint64_t>((r() >> 11) < t[i]) << k;
      }
      words[blk] = w;
    }
    lanes.set_lane(l, r);
  }
}

}  // namespace detail

void sample_mixture_lanes(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                          std::span<const std::uint64_t> stressed,
                          std::span<const std::uint64_t> relaxed,
                          std::span<fault_mask, kXoshiroLanes> out, unsigned live,
                          simd_level level) {
  if (stressed.size() != relaxed.size()) {
    throw std::invalid_argument(
        "sample_mixture_lanes: stressed and relaxed thresholds differ in length");
  }
  if (live > kXoshiroLanes) {
    throw std::invalid_argument("sample_mixture_lanes: more live lanes than lanes");
  }
  const std::size_t n = stressed.size();
  std::array<std::uint64_t*, kXoshiroLanes> words{};
  for (unsigned l = 0; l < live; ++l) {
    if (out[l].bit_size() != n) out[l].resize(n);
    words[l] = out[l].words();
  }
  switch (level) {
    case simd_level::avx512:
      detail::sample_mixture_lanes_avx512(lanes, stress_threshold, stressed.data(),
                                          relaxed.data(), n, words.data(), live);
      return;
    case simd_level::avx2:
      detail::sample_mixture_lanes_avx2(lanes, stress_threshold, stressed.data(),
                                        relaxed.data(), n, words.data(), live);
      return;
    case simd_level::scalar:
      break;
  }
  detail::sample_mixture_lanes_scalar(lanes, stress_threshold, stressed.data(),
                                      relaxed.data(), n, words.data(), live);
}

}  // namespace reldiv::core
