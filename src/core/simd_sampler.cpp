// SIMD dispatch, the counter stream's plan (every decision about its layout:
// word kinds, 32-bit thresholds, the grid check and draw offsets), the
// xoshiro lane table helpers, the per-lane record, and the scalar level of
// both pair steps, the counter step's being the counter stream's reference
// draw.  The AVX2 and AVX-512 levels live in simd_sampler.avx2.cpp (the one
// TU compiled with -mavx2, its AVX-512 functions under a function-level
// target attribute); this TU stays portable and decides at runtime which
// one runs.

#include "core/simd_sampler.inl.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace reldiv::core {

namespace detail {
// Defined in simd_sampler.avx2.cpp.  When that TU was compiled without AVX2
// support (non-x86 arch or a compiler without -mavx2) it forwards to the
// scalar levels and avx2_compiled() reports false, so dispatch never claims
// a level it cannot deliver.
bool avx2_compiled() noexcept;
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
  const std::size_t n = u.size();
  const auto t53 = u.bernoulli_thresholds();
  counter_sample_plan plan;
  plan.bits = n;
  plan.thresholds32.resize(n);
  // The grid check: paired32 words realize p_i as thresholds32[i] / 2^32,
  // rounded up, an inflation below 2^-32 per fault.
  constexpr double kFast32Tolerance = 1e-6;
  double inflation_p = 0.0;   // Σ (realized - p)
  double inflation_pq = 0.0;  // Σ (realized - p) q
  double sum_p = 0.0;
  double sum_pq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = u[i].p;
    const double q = u[i].q;
    plan.thresholds32[i] = bernoulli_threshold32(p);
    const double realized =
        p >= 1.0 ? 1.0 : static_cast<double>(plan.thresholds32[i]) * 0x1.0p-32;
    inflation_p += realized - p;
    inflation_pq += (realized - p) * q;
    sum_p += p;
    sum_pq += p * q;
  }
  const bool grid_safe =
      inflation_p <= kFast32Tolerance * sum_p && inflation_pq <= kFast32Tolerance * sum_pq;
  plan.words.reserve(fault_mask::words_needed(n));
  std::uint64_t offset = 0;
  for (std::size_t lo = 0; lo < n; lo += 64) {
    const std::size_t occupancy = std::min<std::size_t>(n, lo + 64) - lo;
    bool uniform = true;
    for (std::size_t i = lo + 1; i < lo + occupancy && uniform; ++i) uniform = u[i].p == u[lo].p;
    counter_word_plan w;
    w.occupancy = static_cast<std::uint8_t>(occupancy);
    w.draw_offset = static_cast<std::uint32_t>(offset);
    // The bit-slice recurrence costs 53 − trailing-zero-bits draws for all
    // 64 bits however few faults occupy the word.
    const int slice_cost = kBernoulliBits - std::countr_zero(t53[lo]);
    if (uniform && t53[lo] == 0) {
      w.kind = counter_word_kind::zero;
    } else if (uniform && t53[lo] == (std::uint64_t{1} << kBernoulliBits)) {
      w.kind = counter_word_kind::one;
    } else if (uniform && 2 * slice_cost <= static_cast<int>(occupancy)) {
      w.kind = counter_word_kind::slice;
      w.threshold = t53[lo];
      w.slice_cost = static_cast<std::uint8_t>(slice_cost);
      offset += 2 * static_cast<std::uint64_t>(w.slice_cost);
    } else if (grid_safe) {
      w.kind = counter_word_kind::paired32;
      for (std::size_t k = 0; k < occupancy; ++k) {
        const bool always = plan.thresholds32[lo + k] == std::uint64_t{1} << 32;
        w.saturated |= static_cast<std::uint64_t>(always) << k;
      }
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

namespace {

constexpr std::uint64_t kSaturated = std::uint64_t{1} << kBernoulliBits;

/// to := from << 11 (0 at t = 2^53) and the faults whose t = 2^53 set in
/// `always`, one word per 64 faults.
void shift_thresholds(const std::vector<std::uint64_t>& from, std::vector<std::uint64_t>& to,
                      std::vector<std::uint64_t>& always, const char* caller) {
  const std::size_t n = from.size();
  to.reserve(n);
  always.assign(fault_mask::words_needed(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (from[i] > kSaturated) {
      throw std::invalid_argument(std::string(caller) + ": threshold above 2^53");
    }
    // (r >> 11) < t  <=>  r < t << 11 for t < 2^53; t = 2^53 always passes.
    to.push_back(from[i] == kSaturated ? 0 : from[i] << (64 - kBernoulliBits));
    always[i >> 6] |= static_cast<std::uint64_t>(from[i] == kSaturated) << (i & 63);
  }
}

}  // namespace

xoshiro_lane_tables make_mixture_lane_tables(std::uint64_t stress,
                                             std::vector<std::uint64_t> stressed,
                                             std::vector<std::uint64_t> relaxed) {
  if (stressed.size() != relaxed.size()) {
    throw std::invalid_argument(
        "make_mixture_lane_tables: stressed and relaxed thresholds differ in length");
  }
  xoshiro_lane_tables t;
  t.stress_draw = true;
  t.stress = stress;
  shift_thresholds(stressed, t.stressed_shifted, t.stressed_always, "make_mixture_lane_tables");
  shift_thresholds(relaxed, t.relaxed_shifted, t.relaxed_always, "make_mixture_lane_tables");
  t.stressed = std::move(stressed);
  t.relaxed = std::move(relaxed);
  return t;
}

xoshiro_lane_tables make_threshold_lane_tables(std::span<const std::uint64_t> thresholds) {
  xoshiro_lane_tables t;
  t.relaxed.assign(thresholds.begin(), thresholds.end());
  shift_thresholds(t.relaxed, t.relaxed_shifted, t.relaxed_always, "make_threshold_lane_tables");
  return t;
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

/// Σ w[i] over the set bits i of `word`, ascending, onto sum, with
/// `positive` set when some of those w[i] is above 0.
double add_word_weights(double sum, std::uint64_t word, const double* w,
                        std::uint64_t& positive) noexcept {
  while (word != 0) {
    const double wi = w[std::countr_zero(word)];
    sum += wi;
    positive |= wi > 0.0 ? 1 : 0;
    word &= word - 1;
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

/// Lane l's record of one pair, the epilogue both steps share at the scalar
/// level: what experiment_accumulator::add(θ1, ω·θD, any1, any_defeated && ω
/// > 0) records, and θ1 and ω·θD into *thetas when it is not null.
void record_pair(accumulator_lanes& acc, unsigned l, double theta1, double defeated_q,
                 bool any1, bool any_defeated, double omega, const welford_step& step,
                 pair_thetas* thetas) noexcept {
  // §6.2 axis: only the shared fraction ω of each region produces
  // coincident failures; ω = 0 pairs can share faults but never a failure
  // point.
  const double theta2 = omega * defeated_q;
  ++acc.samples[l];
  acc.n1_positive[l] += any1 ? 1 : 0;
  acc.n2_positive[l] += any_defeated && omega > 0.0 ? 1 : 0;
  acc.n1_zero_pfd[l] += theta1 == 0.0 ? 1 : 0;
  acc.n2_zero_pfd[l] += theta2 == 0.0 ? 1 : 0;
  welford_add(acc.theta1, l, theta1, step);
  welford_add(acc.theta2, l, theta2, step);
  if (thetas != nullptr) {
    thetas->theta1[l] = theta1;
    thetas->theta2[l] = theta2;
  }
}

/// The per-lane record (core::record_pair_lane) of `versions` channels of nw
/// words, channel v's word b read as word(v, b).  Word by word, ge[j] holds
/// the faults of the word seen in >= j+1 of the channels layered in so far,
/// so layering channel v in is ge[j] |= ge[j-1] & v from the top down;
/// ge[votes-1] ends as the defeated set.  θ1 and θD take the words side by
/// side, each ascending; θD sums `weights` instead of q when it is not null,
/// and then the defeated set counts as non-empty only through a weight
/// above 0.
template <typename Word>
void record_lane(accumulator_lanes& acc, unsigned l, std::size_t nw, unsigned versions,
                 unsigned votes, double omega, const double* q, const double* weights,
                 const welford_step& step, pair_thetas* thetas, const Word& word) noexcept {
  // Left unfilled: each word writes ge[0..votes) before reading them, and
  // zero-filling all kMaxFoldVersions layers would cost a 512-byte store per
  // record.
  std::array<std::uint64_t, kMaxFoldVersions> ge;
  double theta1 = 0.0;
  double defeated_q = 0.0;
  std::uint64_t any1 = 0;
  std::uint64_t any_defeated = 0;
  for (std::size_t b = 0; b < nw; ++b) {
    const std::uint64_t first = word(0u, b);
    ge[0] = first;
    std::fill_n(ge.begin() + 1, votes - 1, 0);
    for (unsigned v = 1; v < versions; ++v) {
      const std::uint64_t m = word(v, b);
      for (unsigned j = votes - 1; j > 0; --j) ge[j] |= ge[j - 1] & m;
      ge[0] |= m;
    }
    any1 |= first;
    theta1 = add_word_q(theta1, first, q + (b << 6));
    if (weights == nullptr) {
      any_defeated |= ge[votes - 1];
      defeated_q = add_word_q(defeated_q, ge[votes - 1], q + (b << 6));
    } else {
      defeated_q = add_word_weights(defeated_q, ge[votes - 1], weights + (b << 6), any_defeated);
    }
  }
  record_pair(acc, l, theta1, defeated_q, any1 != 0, any_defeated != 0, omega, step, thetas);
}

/// The counter pair step's scalar draw, the counter stream's reference (as
/// simd_sampler.hpp specifies it): word by word, each live lane in turn.
/// sink(blk, a, b) takes word blk of the live lanes, lane l's at a[l] and
/// b[l].
template <typename Sink>
void draw_counter_scalar(const counter_sample_plan& plan, const std::uint64_t* t32,
                         const std::uint64_t* t53, const std::uint64_t* keys,
                         std::uint64_t pair_index, unsigned live, const Sink& sink) noexcept {
  std::array<std::uint64_t, kXoshiroLanes> a{};
  std::array<std::uint64_t, kXoshiroLanes> b{};
  for (std::size_t blk = 0; blk < plan.words.size(); ++blk) {
    const counter_word_plan& w = plan.words[blk];
    const std::uint64_t base = pair_index * plan.draws_per_pair + w.draw_offset;
    if (!counter_word_per_lane(w, keys, base, a.data(), b.data(), live)) {
      const std::uint64_t* t32w = t32 + (blk << 6);
      const std::uint64_t* t53w = t53 + (blk << 6);
      for (unsigned l = 0; l < live; ++l) {
        std::uint64_t wa = 0;
        std::uint64_t wb = 0;
        if (w.kind == counter_word_kind::paired32) {
          for (unsigned k = 0; k < w.occupancy; ++k) {
            const std::uint64_t x = stats::counter_draw(keys[l], base + k);
            wa |= static_cast<std::uint64_t>((x >> 32) < t32w[k]) << k;
            wb |= static_cast<std::uint64_t>((x & 0xffffffffULL) < t32w[k]) << k;
          }
        } else {
          for (unsigned k = 0; k < w.occupancy; ++k) {
            const std::uint64_t xa = stats::counter_draw(keys[l], base + k);
            const std::uint64_t xb = stats::counter_draw(keys[l], base + w.occupancy + k);
            wa |= static_cast<std::uint64_t>((xa >> 11) < t53w[k]) << k;
            wb |= static_cast<std::uint64_t>((xb >> 11) < t53w[k]) << k;
          }
        }
        a[l] = wa;
        b[l] = wb;
      }
    }
    sink(blk, a, b);
  }
}

}  // namespace

__attribute__((aligned(64)))
void counter_pair_step_scalar(const counter_sample_plan& plan, const std::uint64_t* t32,
                              const std::uint64_t* t53, const std::uint64_t* keys,
                              std::uint64_t pair_index, accumulator_lanes& acc,
                              const double* q, unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept {
  // Each lane's θ1 over a and θ2 over a ∧ b, word by word as the draw hands
  // them over, so each sum ascends.
  std::array<double, kXoshiroLanes> theta1{};
  std::array<double, kXoshiroLanes> theta2{};
  std::array<std::uint64_t, kXoshiroLanes> any1{};
  std::array<std::uint64_t, kXoshiroLanes> any2{};
  draw_counter_scalar(plan, t32, t53, keys, pair_index, live,
                      [&](std::size_t blk, const auto& a, const auto& b) {
                        for (unsigned l = 0; l < live; ++l) {
                          const std::uint64_t common = a[l] & b[l];
                          theta1[l] = add_word_q(theta1[l], a[l], q + (blk << 6));
                          theta2[l] = add_word_q(theta2[l], common, q + (blk << 6));
                          any1[l] |= a[l];
                          any2[l] |= common;
                        }
                      });
  for (unsigned l = 0; l < live; ++l) {
    record_pair(acc, l, theta1[l], theta2[l], any1[l] != 0, any2[l] != 0, 1.0, step, thetas);
  }
}

void counter_pair_words_scalar(const counter_sample_plan& plan, const std::uint64_t* t32,
                               const std::uint64_t* t53, const std::uint64_t* keys,
                               std::uint64_t pair_index, std::uint64_t* words,
                               unsigned live) noexcept {
  const std::size_t nw = plan.words.size();
  draw_counter_scalar(plan, t32, t53, keys, pair_index, live,
                      [&](std::size_t blk, const auto& a, const auto& b) {
                        std::copy_n(a.begin(), live, words + blk * kXoshiroLanes);
                        std::copy_n(b.begin(), live, words + (nw + blk) * kXoshiroLanes);
                      });
}

__attribute__((aligned(64)))
void xoshiro_pair_step_scalar(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                              std::uint64_t* channels, accumulator_lanes& acc,
                              unsigned versions, unsigned votes, double omega, const double* q,
                              std::size_t n, unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept {
  // Each live lane in turn: its channels drawn in order, channel v's word b
  // into channels[v·W + b] as mc::sample_mask_from_thresholds draws it, then
  // recorded by the per-lane record.
  const std::size_t nw = fault_mask::words_needed(n);
  for (unsigned l = 0; l < live; ++l) {
    stats::rng r = lanes.lane(l);
    for (unsigned v = 0; v < versions; ++v) {
      const std::uint64_t* t = tables.stress_draw && (r() >> 11) < tables.stress
                                   ? tables.stressed.data()
                                   : tables.relaxed.data();
      for (std::size_t b = 0, i = 0; b < nw; ++b) {
        const std::size_t hi = std::min<std::size_t>(n, i + 64);
        std::uint64_t w = 0;
        // A running bit, not a shift by the fault index: the loop is bound by
        // its instruction count.
        for (std::uint64_t bit = 1; i < hi; ++i, bit <<= 1) {
          w |= bit & (std::uint64_t{0} - static_cast<std::uint64_t>((r() >> 11) < t[i]));
        }
        channels[v * nw + b] = w;
      }
    }
    lanes.set_lane(l, r);
    record_lane(acc, l, nw, versions, votes, omega, q, nullptr, step, thetas,
                [channels, nw](unsigned v, std::size_t b) { return channels[v * nw + b]; });
  }
}

}  // namespace detail

namespace {

/// The factors of running_moments::add, in its own expression order, for a
/// step from `before` samples.
detail::welford_step make_welford_step(std::uint64_t before) noexcept {
  detail::welford_step step;
  step.first = before == 0;
  step.n0 = static_cast<double>(before);
  step.n = static_cast<double>(before + 1);
  step.quartic = step.n * step.n - 3.0 * step.n + 3.0;
  step.cubic = step.n - 2.0;
  return step;
}

void check_shape(unsigned versions, unsigned votes, const char* caller) {
  if (votes == 0 || votes > versions || versions > kMaxFoldVersions) {
    throw std::invalid_argument(std::string(caller) +
                                ": needs 1 <= votes <= versions <= kMaxFoldVersions");
  }
}

/// The checks both pair steps share, and the Welford factors of the step the
/// live lanes take.
detail::welford_step check_pair_step(const accumulator_lanes& acc, unsigned versions,
                                     unsigned votes, unsigned live, const char* caller) {
  check_shape(versions, votes, caller);
  if (live > kXoshiroLanes) {
    throw std::invalid_argument(std::string(caller) + ": more live lanes than lanes");
  }
  for (unsigned l = 1; l < live; ++l) {
    if (acc.samples[l] != acc.samples[0]) {
      throw std::invalid_argument(std::string(caller) +
                                  ": live lanes hold different sample counts");
    }
  }
  return make_welford_step(acc.samples[0]);
}

void check_counter_plan(const counter_sample_plan& plan, const fault_universe& u,
                        const char* caller) {
  if (plan.bits != u.size() || plan.words.size() != fault_mask::words_needed(u.size()) ||
      plan.thresholds32.size() != u.size()) {
    throw std::invalid_argument(std::string(caller) + ": plan does not match universe");
  }
}

}  // namespace

void record_pair_lane(accumulator_lanes& acc, unsigned lane,
                      std::span<const fault_mask> channels, unsigned votes, double omega,
                      std::span<const double> q, pair_thetas* thetas,
                      std::span<const double> weights) {
  const auto versions = static_cast<unsigned>(std::min<std::size_t>(channels.size(),
                                                                    kMaxFoldVersions + 1));
  check_shape(versions, votes, "record_pair_lane");
  if (lane >= kXoshiroLanes) {
    throw std::invalid_argument("record_pair_lane: lane out of range");
  }
  for (const fault_mask& m : channels) {
    if (m.bit_size() != q.size()) {
      throw std::out_of_range("record_pair_lane: channel and q sizes differ");
    }
  }
  if (!weights.empty() && weights.size() != q.size()) {
    throw std::invalid_argument("record_pair_lane: weights and q sizes differ");
  }
  detail::record_lane(acc, lane, fault_mask::words_needed(q.size()), versions, votes, omega,
                      q.data(), weights.empty() ? nullptr : weights.data(),
                      make_welford_step(acc.samples[lane]), thetas,
                      [channels](unsigned v, std::size_t b) { return channels[v].words()[b]; });
}

void counter_pair_step_lanes(const counter_sample_plan& plan, const fault_universe& u,
                             std::span<const std::uint64_t, kXoshiroLanes> keys,
                             std::uint64_t pair_index, accumulator_lanes& acc, unsigned live,
                             simd_level level, pair_thetas* thetas) {
  check_counter_plan(plan, u, "counter_pair_step_lanes");
  const detail::welford_step step = check_pair_step(acc, 2, 2, live, "counter_pair_step_lanes");
  if (live == 0) return;
  const std::uint64_t* t32 = plan.thresholds32.data();
  const std::uint64_t* t53 = u.bernoulli_thresholds().data();
  const double* q = u.q_array().data();
  switch (level) {
    case simd_level::avx512:
      detail::counter_pair_step_avx512(plan, t32, t53, keys.data(), pair_index, acc, q, live,
                                       step, thetas);
      return;
    case simd_level::avx2:
      detail::counter_pair_step_avx2(plan, t32, t53, keys.data(), pair_index, acc, q, live,
                                     step, thetas);
      return;
    case simd_level::scalar:
      break;
  }
  detail::counter_pair_step_scalar(plan, t32, t53, keys.data(), pair_index, acc, q, live, step,
                                   thetas);
}

void sample_pair_counter_batch(const counter_sample_plan& plan,
                               const fault_universe& u, std::uint64_t key,
                               std::uint64_t first_pair, std::size_t count,
                               std::span<fault_mask> a, std::span<fault_mask> b,
                               simd_level level) {
  check_counter_plan(plan, u, "sample_pair_counter_batch");
  if (a.size() < count || b.size() < count) {
    throw std::invalid_argument(
        "sample_pair_counter_batch: mask spans shorter than batch");
  }
  // Pair first_pair + j + l of `key` is pair first_pair + j of the stream
  // l * D counters on: counter_draw(key, c) depends on key + (c + 1) * gamma.
  std::array<std::uint64_t, kXoshiroLanes> keys{};
  for (unsigned l = 0; l < kXoshiroLanes; ++l) {
    keys[l] = key + l * plan.draws_per_pair * stats::kSplitmix64Gamma;
  }
  const std::uint64_t* t32 = plan.thresholds32.data();
  const std::uint64_t* t53 = u.bernoulli_thresholds().data();
  const std::size_t nw = plan.words.size();
  // One scratch per thread that only grows: a caller that draws eight pairs
  // per call (perfbench's kernel probe) would otherwise pay an allocation per
  // call.
  thread_local std::vector<std::uint64_t> words;
  if (words.size() < 2 * nw * kXoshiroLanes) words.resize(2 * nw * kXoshiroLanes);
  for (std::size_t j = 0; j < count; j += kXoshiroLanes) {
    const auto live = static_cast<unsigned>(std::min<std::size_t>(kXoshiroLanes, count - j));
    switch (level) {
      case simd_level::avx512:
        detail::counter_pair_words_avx512(plan, t32, t53, keys.data(), first_pair + j,
                                          words.data(), live);
        break;
      case simd_level::avx2:
        detail::counter_pair_words_avx2(plan, t32, t53, keys.data(), first_pair + j,
                                        words.data(), live);
        break;
      case simd_level::scalar:
        detail::counter_pair_words_scalar(plan, t32, t53, keys.data(), first_pair + j,
                                          words.data(), live);
        break;
    }
    for (unsigned l = 0; l < live; ++l) {
      fault_mask& ma = a[j + l];
      fault_mask& mb = b[j + l];
      if (ma.bit_size() != plan.bits) ma.resize(plan.bits);
      if (mb.bit_size() != plan.bits) mb.resize(plan.bits);
      for (std::size_t w = 0; w < nw; ++w) {
        ma.words()[w] = words[w * kXoshiroLanes + l];
        mb.words()[w] = words[(nw + w) * kXoshiroLanes + l];
      }
    }
  }
}

void xoshiro_pair_step_lanes(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                             std::vector<std::uint64_t>& hits, accumulator_lanes& acc,
                             unsigned versions, unsigned votes, double omega,
                             std::span<const double> q, unsigned live, simd_level level,
                             pair_thetas* thetas) {
  const std::size_t n = tables.relaxed.size();
  const std::size_t words = fault_mask::words_needed(n);
  const std::size_t stressed = tables.stress_draw ? n : 0;
  if (tables.relaxed_shifted.size() != n || tables.relaxed_always.size() != words ||
      tables.stressed.size() != stressed || tables.stressed_shifted.size() != stressed ||
      tables.stressed_always.size() != (tables.stress_draw ? words : 0)) {
    throw std::invalid_argument("xoshiro_pair_step_lanes: inconsistent threshold tables");
  }
  if (n != q.size()) {
    throw std::out_of_range("xoshiro_pair_step_lanes: tables and q differ in size");
  }
  const detail::welford_step step =
      check_pair_step(acc, versions, votes, live, "xoshiro_pair_step_lanes");
  if (live == 0) return;
  // One 64-byte aligned run of layers, so a layer entry never straddles a
  // cache line.
  constexpr std::size_t kAlign = 64;
  const std::size_t bytes = detail::hit_bytes(versions, votes, n, level);
  std::size_t space = (bytes + kAlign + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  if (hits.size() < space) hits.resize(space);
  space = hits.size() * sizeof(std::uint64_t);
  void* base = hits.data();
  std::uint64_t* layers = static_cast<std::uint64_t*>(std::align(kAlign, bytes, base, space));
  switch (level) {
    case simd_level::avx512:
      detail::xoshiro_pair_step_avx512(lanes, tables, layers, acc, versions, votes, omega,
                                       q.data(), n, live, step, thetas);
      return;
    case simd_level::avx2:
      detail::xoshiro_pair_step_avx2(lanes, tables, layers, acc, versions, votes, omega,
                                     q.data(), n, live, step, thetas);
      return;
    case simd_level::scalar:
      break;
  }
  detail::xoshiro_pair_step_scalar(lanes, tables, layers, acc, versions, votes, omega, q.data(),
                                   n, live, step, thetas);
}

}  // namespace reldiv::core
