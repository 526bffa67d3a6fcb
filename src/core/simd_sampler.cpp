// SIMD dispatch, fast-simd plan construction, and the scalar level of all
// three kernel families.  The AVX2 and AVX-512 levels live in
// simd_sampler.avx2.cpp (the one TU compiled with -mavx2, its AVX-512
// functions under a function-level target attribute); this TU stays portable
// and decides at runtime which one runs.

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

namespace detail {

namespace {

/// Σ q[i] over the set bits i of w, ascending, onto sum.
double add_word_q(double sum, std::uint64_t w, const double* q) noexcept {
  while (w != 0) {
    sum += q[std::countr_zero(w)];
    w &= w - 1;
  }
  return sum;
}

/// stats::running_moments::add(x) on lane l of m, term for term.
void welford_add(moments_lanes& m, unsigned l, double x, const welford_step& s) noexcept {
  if (s.first) {
    m.min[l] = x;
    m.max[l] = x;
  } else {
    m.min[l] = std::min(m.min[l], x);
    m.max[l] = std::max(m.max[l], x);
  }
  const double delta = x - m.m1[l];
  const double delta_n = delta / s.n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * s.n0;
  m.m1[l] += delta_n;
  m.m4[l] += term1 * delta_n2 * s.quartic + 6.0 * delta_n2 * m.m2[l] - 4.0 * delta_n * m.m3[l];
  m.m3[l] += term1 * delta_n * s.cubic - 3.0 * delta_n * m.m2[l];
  m.m2[l] += term1;
}

}  // namespace

void fold_pair_lanes_scalar(accumulator_lanes& acc, const lane_masks* channels,
                            unsigned versions, unsigned votes, double omega,
                            const double* q, std::size_t n, unsigned live,
                            const welford_step& step) noexcept {
  // Each live lane in turn, word by word.  ge[j] holds the faults of this
  // word seen in >= j+1 of the channels folded in so far, so folding channel
  // v in is ge[j] |= ge[j-1] & v from the top down; ge[votes-1] ends as the
  // defeated set.
  const std::size_t nw = fault_mask::words_needed(n);
  std::array<std::uint64_t, kMaxFoldVersions> ge{};
  for (unsigned l = 0; l < live; ++l) {
    double theta1 = 0.0;
    double defeated_q = 0.0;
    std::uint64_t any1 = 0;
    std::uint64_t any_defeated = 0;
    for (std::size_t b = 0; b < nw; ++b) {
      const std::uint64_t first = channels[0][l].words()[b];
      ge[0] = first;
      std::fill_n(ge.begin() + 1, votes - 1, 0);
      for (unsigned v = 1; v < versions; ++v) {
        const std::uint64_t m = channels[v][l].words()[b];
        for (unsigned j = votes - 1; j > 0; --j) ge[j] |= ge[j - 1] & m;
        ge[0] |= m;
      }
      any1 |= first;
      theta1 = add_word_q(theta1, first, q + (b << 6));
      any_defeated |= ge[votes - 1];
      defeated_q = add_word_q(defeated_q, ge[votes - 1], q + (b << 6));
    }
    // §6.2 axis: only the shared fraction ω of each region produces
    // coincident failures; ω = 0 pairs can share faults but never a failure
    // point.
    const double theta2 = omega * defeated_q;
    ++acc.samples[l];
    acc.n1_positive[l] += any1 != 0 ? 1 : 0;
    acc.n2_positive[l] += any_defeated != 0 && omega > 0.0 ? 1 : 0;
    acc.n1_zero_pfd[l] += theta1 == 0.0 ? 1 : 0;
    acc.n2_zero_pfd[l] += theta2 == 0.0 ? 1 : 0;
    welford_add(acc.theta1, l, theta1, step);
    welford_add(acc.theta2, l, theta2, step);
  }
}

}  // namespace detail

void fold_pair_lanes(accumulator_lanes& acc,
                     std::span<const std::array<fault_mask, kXoshiroLanes>> channels,
                     unsigned votes, double omega, std::span<const double> q,
                     unsigned live, simd_level level) {
  const auto versions = static_cast<unsigned>(channels.size());
  if (votes == 0 || votes > versions || versions > kMaxFoldVersions) {
    throw std::invalid_argument(
        "fold_pair_lanes: needs 1 <= votes <= versions <= kMaxFoldVersions");
  }
  if (live > kXoshiroLanes) {
    throw std::invalid_argument("fold_pair_lanes: more live lanes than lanes");
  }
  for (const detail::lane_masks& channel : channels) {
    for (unsigned l = 0; l < live; ++l) {
      if (channel[l].bit_size() != q.size()) {
        throw std::invalid_argument("fold_pair_lanes: mask and q sizes differ");
      }
    }
  }
  for (unsigned l = 1; l < live; ++l) {
    if (acc.samples[l] != acc.samples[0]) {
      throw std::invalid_argument("fold_pair_lanes: live lanes hold different sample counts");
    }
  }
  if (live == 0) return;
  // The factors of running_moments::add, in its own expression order.
  detail::welford_step step;
  step.first = acc.samples[0] == 0;
  step.n0 = static_cast<double>(acc.samples[0]);
  step.n = static_cast<double>(acc.samples[0] + 1);
  step.quartic = step.n * step.n - 3.0 * step.n + 3.0;
  step.cubic = step.n - 2.0;
  switch (level) {
    case simd_level::avx512:
      detail::fold_pair_lanes_avx512(acc, channels.data(), versions, votes, omega, q.data(),
                                     q.size(), live, step);
      return;
    case simd_level::avx2:
      detail::fold_pair_lanes_avx2(acc, channels.data(), versions, votes, omega, q.data(),
                                   q.size(), live, step);
      return;
    case simd_level::scalar:
      break;
  }
  detail::fold_pair_lanes_scalar(acc, channels.data(), versions, votes, omega, q.data(),
                                 q.size(), live, step);
}

}  // namespace reldiv::core
