// SIMD dispatch, fast-simd plan construction, the lane_block and xoshiro
// lane table helpers, and the scalar level of all three kernel families.  The
// AVX2 and AVX-512 levels live in simd_sampler.avx2.cpp (the one TU compiled
// with -mavx2, its AVX-512 functions under a function-level target
// attribute); this TU stays portable and decides at runtime which one runs.

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
      for (std::size_t k = 0; k < occupancy; ++k) {
        const bool always = u.bernoulli_thresholds32()[lo + k] == std::uint64_t{1} << 32;
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

void lane_block::store_lane(unsigned v, unsigned l, const fault_mask& m) {
  if (m.bit_size() != bits_ || v >= versions_ || l >= kXoshiroLanes) {
    throw std::out_of_range("lane_block::store_lane: mask, channel or lane out of range");
  }
  for (std::size_t b = 0; b < m.word_count(); ++b) row(v, b)[l] = m.words()[b];
}

void lane_block::load_lane(unsigned v, unsigned l, fault_mask& out) const {
  if (v >= versions_ || l >= kXoshiroLanes) {
    throw std::out_of_range("lane_block::load_lane: channel or lane out of range");
  }
  if (out.bit_size() != bits_) out.resize(bits_);
  for (std::size_t b = 0; b < out.word_count(); ++b) out.words()[b] = row(v, b)[l];
}

namespace detail {

void sample_pair_counter_lanes_scalar(const counter_sample_plan& plan,
                                      const std::uint64_t* t32, const std::uint64_t* t53,
                                      const std::uint64_t* keys, std::uint64_t pair_index,
                                      std::uint64_t* a, std::uint64_t* b,
                                      unsigned live) noexcept {
  // Word by word, each live lane in turn, exactly as
  // mc::sample_version_pair_counter_reference fills a word.
  for (std::size_t blk = 0; blk < plan.words.size(); ++blk) {
    const counter_word_plan& w = plan.words[blk];
    const std::uint64_t base = pair_index * plan.draws_per_pair + w.draw_offset;
    std::uint64_t* a_row = a + blk * kXoshiroLanes;
    std::uint64_t* b_row = b + blk * kXoshiroLanes;
    if (counter_word_per_lane(w, keys, base, a_row, b_row, live)) continue;
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
      a_row[l] = wa;
      b_row[l] = wb;
    }
  }
}

namespace {

/// core::sample_pair_counter_lanes on lanes [0, live) of `block`, whose shape
/// and plan have been checked against `u`.
void draw_counter_lanes(const counter_sample_plan& plan, const fault_universe& u,
                        const std::uint64_t* keys, std::uint64_t pair_index, lane_block& block,
                        unsigned live, simd_level level) {
  if (plan.bits == 0 || live == 0) return;
  const std::uint64_t* t32 = u.bernoulli_thresholds32().data();
  const std::uint64_t* t53 = u.bernoulli_thresholds().data();
  std::uint64_t* a = block.row(0, 0);
  std::uint64_t* b = block.row(1, 0);
  switch (level) {
    case simd_level::avx512:
      sample_pair_counter_lanes_avx512(plan, t32, t53, keys, pair_index, a, b, live);
      return;
    case simd_level::avx2:
      sample_pair_counter_lanes_avx2(plan, t32, t53, keys, pair_index, a, b, live);
      return;
    case simd_level::scalar:
      break;
  }
  sample_pair_counter_lanes_scalar(plan, t32, t53, keys, pair_index, a, b, live);
}

void check_counter_plan(const counter_sample_plan& plan, const fault_universe& u,
                        const char* caller) {
  if (plan.bits != u.size() || plan.words.size() != u.mask_words()) {
    throw std::invalid_argument(std::string(caller) + ": plan does not match universe");
  }
}

}  // namespace

}  // namespace detail

void sample_pair_counter_lanes(const counter_sample_plan& plan, const fault_universe& u,
                               std::span<const std::uint64_t, kXoshiroLanes> keys,
                               std::uint64_t pair_index, lane_block& block, unsigned live,
                               simd_level level) {
  detail::check_counter_plan(plan, u, "sample_pair_counter_lanes");
  if (block.versions() != 2 || block.bit_size() != plan.bits) {
    throw std::invalid_argument(
        "sample_pair_counter_lanes: block is not two channels of the plan's size");
  }
  if (live > kXoshiroLanes) {
    throw std::invalid_argument("sample_pair_counter_lanes: more live lanes than lanes");
  }
  detail::draw_counter_lanes(plan, u, keys.data(), pair_index, block, live, level);
}

void sample_pair_counter_batch(const counter_sample_plan& plan,
                               const fault_universe& u, std::uint64_t key,
                               std::uint64_t first_pair, std::size_t count,
                               std::span<fault_mask> a, std::span<fault_mask> b,
                               simd_level level) {
  detail::check_counter_plan(plan, u, "sample_pair_counter_batch");
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
  // One block per thread, reshaped only when the universe size changes: a
  // caller that draws eight pairs per call (perfbench's kernel probe) would
  // otherwise pay an aligned allocation per call.
  thread_local lane_block block;
  if (block.versions() != 2 || block.bit_size() != plan.bits) block = lane_block(2, plan.bits);
  for (std::size_t j = 0; j < count; j += kXoshiroLanes) {
    const auto live = static_cast<unsigned>(std::min<std::size_t>(kXoshiroLanes, count - j));
    detail::draw_counter_lanes(plan, u, keys.data(), first_pair + j, block, live, level);
    for (unsigned l = 0; l < live; ++l) {
      block.load_lane(0, l, a[j + l]);
      block.load_lane(1, l, b[j + l]);
    }
  }
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

/// Lane l's record of one pair, the epilogue the fold and the pair step
/// share: what experiment_accumulator::add(θ1, ω·θD, any1, any_defeated && ω
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

}  // namespace

void fold_pair_lanes_scalar(accumulator_lanes& acc, const std::uint64_t* block,
                            unsigned versions, unsigned votes, double omega,
                            const double* q, std::size_t n, unsigned live,
                            const welford_step& step, pair_thetas* thetas) noexcept {
  // Each live lane in turn, word by word.  ge[j] holds the faults of this
  // word seen in >= j+1 of the channels folded in so far, so folding channel
  // v in is ge[j] |= ge[j-1] & v from the top down; ge[votes-1] ends as the
  // defeated set.
  const std::size_t nw = fault_mask::words_needed(n);
  const std::size_t channel_stride = nw * kXoshiroLanes;
  std::array<std::uint64_t, kMaxFoldVersions> ge{};
  for (unsigned l = 0; l < live; ++l) {
    double theta1 = 0.0;
    double defeated_q = 0.0;
    std::uint64_t any1 = 0;
    std::uint64_t any_defeated = 0;
    for (std::size_t b = 0; b < nw; ++b) {
      const std::uint64_t* column = block + b * kXoshiroLanes + l;
      const std::uint64_t first = column[0];
      ge[0] = first;
      std::fill_n(ge.begin() + 1, votes - 1, 0);
      for (unsigned v = 1; v < versions; ++v) {
        const std::uint64_t m = column[v * channel_stride];
        for (unsigned j = votes - 1; j > 0; --j) ge[j] |= ge[j - 1] & m;
        ge[0] |= m;
      }
      any1 |= first;
      theta1 = add_word_q(theta1, first, q + (b << 6));
      any_defeated |= ge[votes - 1];
      defeated_q = add_word_q(defeated_q, ge[votes - 1], q + (b << 6));
    }
    record_pair(acc, l, theta1, defeated_q, any1 != 0, any_defeated != 0, omega, step, thetas);
  }
}

void xoshiro_pair_step_scalar(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                              std::uint64_t* ge, accumulator_lanes& acc, unsigned versions,
                              unsigned votes, double omega, const double* q, std::size_t n,
                              unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept {
  // Each live lane in turn: its channels drawn in order, each word by word
  // as mc::sample_mask_from_thresholds draws it, then folded as
  // fold_pair_lanes_scalar folds a block column, θ1 and θD side by side over
  // each word.  Layer j (word b at ge[j·W + b]) holds the faults this lane
  // drew in >= j+1 of the channels before the last, updated from the top
  // down as the fold updates its ge[j]; a fault of the last channel is
  // defeated when it was already in `votes` of them, or in votes - 1 and
  // drawn again, and the defeated words are stored over layer 0.  Channel
  // 0's words are kept in the row after the layers.
  const std::size_t nw = fault_mask::words_needed(n);
  const unsigned layers = hit_layers(versions, votes);
  const unsigned last = versions - 1;
  std::uint64_t* first = ge + layers * nw;
  for (unsigned l = 0; l < live; ++l) {
    stats::rng r = lanes.lane(l);
    // Channel v's words in order, each handed to consume(b, word).
    const auto draw_channel = [&](const auto& consume) {
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
        consume(b, w);
      }
    };
    draw_channel([&](std::size_t b, std::uint64_t w) {
      first[b] = w;
      ge[b] = w;
      for (unsigned j = 1; j < layers; ++j) ge[j * nw + b] = 0;
    });
    for (unsigned v = 1; v < last; ++v) {
      draw_channel([&](std::size_t b, std::uint64_t w) {
        for (unsigned j = std::min(layers - 1, v); j > 0; --j) {
          ge[j * nw + b] |= ge[(j - 1) * nw + b] & w;
        }
        ge[b] |= w;
      });
    }
    if (last > 0) {
      draw_channel([&](std::size_t b, std::uint64_t w) {
        const std::uint64_t held = votes < versions ? ge[(votes - 1) * nw + b] : 0;
        const std::uint64_t again = votes >= 2 ? ge[(votes - 2) * nw + b] & w : w;
        ge[b] = held | again;
      });
    }
    // 1of1: the defeated set is channel 0's.
    const std::uint64_t* defeated = last > 0 ? ge : first;
    double theta1 = 0.0;
    double defeated_q = 0.0;
    std::uint64_t any1 = 0;
    std::uint64_t any_defeated = 0;
    for (std::size_t b = 0; b < nw; ++b) {
      any1 |= first[b];
      theta1 = add_word_q(theta1, first[b], q + (b << 6));
      any_defeated |= defeated[b];
      defeated_q = add_word_q(defeated_q, defeated[b], q + (b << 6));
    }
    lanes.set_lane(l, r);
    record_pair(acc, l, theta1, defeated_q, any1 != 0, any_defeated != 0, omega, step, thetas);
  }
}

}  // namespace detail

namespace {

/// The shape checks fold_pair_lanes and xoshiro_pair_step_lanes share, and
/// the factors of running_moments::add, in its own expression order, for the
/// step the live lanes take.
detail::welford_step check_pair_step(const accumulator_lanes& acc, unsigned versions,
                                     unsigned votes, unsigned live, const char* caller) {
  if (votes == 0 || votes > versions || versions > kMaxFoldVersions) {
    throw std::invalid_argument(std::string(caller) +
                                ": needs 1 <= votes <= versions <= kMaxFoldVersions");
  }
  if (live > kXoshiroLanes) {
    throw std::invalid_argument(std::string(caller) + ": more live lanes than lanes");
  }
  for (unsigned l = 1; l < live; ++l) {
    if (acc.samples[l] != acc.samples[0]) {
      throw std::invalid_argument(std::string(caller) +
                                  ": live lanes hold different sample counts");
    }
  }
  detail::welford_step step;
  step.first = acc.samples[0] == 0;
  step.n0 = static_cast<double>(acc.samples[0]);
  step.n = static_cast<double>(acc.samples[0] + 1);
  step.quartic = step.n * step.n - 3.0 * step.n + 3.0;
  step.cubic = step.n - 2.0;
  return step;
}

}  // namespace

void fold_pair_lanes(accumulator_lanes& acc, const lane_block& block, unsigned votes,
                     double omega, std::span<const double> q, unsigned live,
                     simd_level level, pair_thetas* thetas) {
  const unsigned versions = block.versions();
  const detail::welford_step step = check_pair_step(acc, versions, votes, live, "fold_pair_lanes");
  if (block.bit_size() != q.size()) {
    throw std::invalid_argument("fold_pair_lanes: block and q sizes differ");
  }
  if (live == 0) return;
  switch (level) {
    case simd_level::avx512:
      detail::fold_pair_lanes_avx512(acc, block.row(0, 0), versions, votes, omega, q.data(),
                                     q.size(), live, step, thetas);
      return;
    case simd_level::avx2:
      detail::fold_pair_lanes_avx2(acc, block.row(0, 0), versions, votes, omega, q.data(),
                                   q.size(), live, step, thetas);
      return;
    case simd_level::scalar:
      break;
  }
  detail::fold_pair_lanes_scalar(acc, block.row(0, 0), versions, votes, omega, q.data(),
                                 q.size(), live, step, thetas);
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
