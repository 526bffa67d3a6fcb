#pragma once
// The runtime-dispatched SIMD kernels of the library, two pair steps that
// each run one shard stream per 64-bit lane (one zmm register at AVX-512,
// two ymm registers at AVX2) and draw and record one pair step of eight
// shards in one pass:
//
//   * the counter pair step: version pair s of eight counter streams (the
//     fast-simd engine), drawing each lane decision-for-decision as the
//     scalar reference draws it on that lane's key and adding each mask
//     word's faults into θ1 and θ2 as the word leaves its draw loop
//     (counter_pair_step_lanes; the batch API below runs the same draw and
//     stores the words instead);
//   * the xoshiro pair step: eight stats::rng streams advanced in lockstep
//     through one pair step, drawing every channel decision-for-decision as
//     the scalar samplers draw it on each stream — a common-cause mixture's
//     versions or, with no stress draw, a universe's — and, at the vector
//     levels, summing θ1 and θ2 as it draws (xoshiro_pair_step_lanes, at
//     the end of this header).
//
// Each lane of either step records what the per-lane record
// (record_pair_lane) records for its channels: θ1, the defeated set's θ2,
// the counters and the Welford moments, into eight structure-of-arrays pair
// accumulators, with the IEEE operations of experiment_accumulator::add in
// the same order.  The per-lane record is also the whole record of the
// samplers without lane tables (the copula, the aliased model) and of the
// pair campaign, which draw one lane at a time; the campaign hands it a θ2
// weight span.  Neither step stores the masks it draws: the counter
// step sums each word of the eight lanes from the registers that drew it,
// and the xoshiro step adds each fault's q into θ1 under the lanes
// that drew it while drawing channel 0, keeps the hits of the channels
// before the last per fault, and adds into θ2 under the defeated lanes while
// drawing the last.  Its AVX-512 level compares raw draws against
// thresholds shifted left by 11, and takes the faults whose threshold is
// 2^53, which that operand cannot hold, from per-word saturated masks
// (xoshiro_lane_tables).  The two steps share one epilogue per level: the
// counters, the zero tests, ω·θD and the two Welford steps.
//
// This TU family (src/core/simd_sampler.*) is the ONLY place in the repo
// allowed to touch <immintrin.h> — enforced by the reldiv_lint
// `simd-isolation` rule — everything else calls the dispatched API below.
// Both steps take the same simd_level, so RELDIV_SIMD and the programmatic
// cap govern them alike.
//
// Contract: for any universe, key and pair index, the counter step draws
// at EVERY dispatch level the bits its scalar level draws, the counter
// stream's reference (specified above make_counter_sample_plan).  The SIMD
// level is a pure throughput knob, exactly like the thread count: runtime
// CPUID dispatch (plus the RELDIV_SIMD environment override and a
// programmatic cap for tests/benches) selects between a scalar level, AVX2
// and AVX-512, and all of them are decision-for-decision identical because
// every lane's draw is stats::counter_draw(key, counter) — a pure function
// the vector levels evaluate for four (AVX2) or eight (AVX-512) lanes per
// instruction.
//
// The pipeline (mc::run_experiment with sampling_engine::fast_simd):
//   1. relayout: core::make_p_sorted_permutation gathers equal-p faults into
//      whole words, so heterogeneous universes become mostly sliceable;
//   2. plan: make_counter_sample_plan freezes per-word kernel kinds, their
//      thresholds and the per-pair draw budget over the permuted layout;
//   3. lanes: shards run in groups of eight, one counter stream per lane;
//      each step draws one pair per shard and records the eight pairs at
//      once (counter_pair_step_lanes).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/fault_universe.hpp"
#include "stats/descriptive.hpp"
#include "stats/random.hpp"

namespace reldiv::core {

/// Dispatch levels, ordered: higher levels may only be selected when the
/// host supports them; every level produces identical bits.
enum class simd_level : std::uint8_t {
  scalar = 0,  ///< portable fallback (same template, scalar ops)
  avx2 = 1,    ///< 4 × 64-bit lanes per instruction
  avx512 = 2,  ///< 8 × 64-bit lanes per instruction (F + DQ + BW)
};

[[nodiscard]] const char* simd_level_name(simd_level level) noexcept;

/// Highest level this host can execute (CPUID probe, cached): avx512 when the
/// CPU reports avx2, avx512f, avx512dq and avx512bw, else avx2 when it
/// reports avx2; scalar when the AVX2 TU was compiled without AVX2 support or
/// the arch is not x86.
[[nodiscard]] simd_level detected_simd_level() noexcept;

/// The level the SIMD kernels will actually run: detected_simd_level()
/// capped by the RELDIV_SIMD environment variable ("off"/"scalar"/"0" force
/// the fallback; "avx2" caps at AVX2, so an AVX-512 host runs the AVX2
/// kernels and a non-AVX2 host degrades cleanly to scalar; any other value
/// leaves the level uncapped) and by any programmatic cap.  Results are
/// bit-identical across levels, so this is a throughput knob, never a
/// results knob.
[[nodiscard]] simd_level active_simd_level() noexcept;

/// Programmatic cap for tests/benches (e.g. benchmarking the scalar fallback
/// or the AVX2 kernels on an AVX-512 host).  Like the env override it can
/// only lower the level.
void set_simd_level_cap(simd_level cap) noexcept;
void clear_simd_level_cap() noexcept;

/// Shard streams per step, one per 64-bit lane of an AVX-512 register (two
/// AVX2 registers): the counter and xoshiro pair steps both work on this
/// many shards at once.
inline constexpr unsigned kXoshiroLanes = 8;

// ---------------------------------------------------------------------------
// Pair records
// ---------------------------------------------------------------------------

/// Most channels one pair step takes (the spec parser's and enumerate_cells'
/// `versions <= 64`): it bounds the defeated-set layers.
inline constexpr unsigned kMaxFoldVersions = 64;

/// stats::running_moments of kXoshiroLanes lanes without their count,
/// structure-of-arrays: each field of all lanes is one AVX-512 register.
struct moments_lanes {
  std::array<double, kXoshiroLanes> m1{}, m2{}, m3{}, m4{}, min{}, max{};
};

/// kXoshiroLanes pair accumulators (mc::experiment_accumulator without kept
/// samples), structure-of-arrays; lane l's θ moments have count samples[l].
struct accumulator_lanes {
  std::array<std::uint64_t, kXoshiroLanes> samples{}, n1_positive{}, n2_positive{},
      n1_zero_pfd{}, n2_zero_pfd{};
  moments_lanes theta1, theta2;

  [[nodiscard]] stats::running_moments_state theta1_state(unsigned l) const noexcept {
    return moments_state(theta1, l);
  }
  [[nodiscard]] stats::running_moments_state theta2_state(unsigned l) const noexcept {
    return moments_state(theta2, l);
  }

 private:
  [[nodiscard]] stats::running_moments_state moments_state(const moments_lanes& m,
                                                           unsigned l) const noexcept {
    return {samples[l], m.m1[l], m.m2[l], m.m3[l], m.m4[l], m.min[l], m.max[l]};
  }
};

/// The θ1 and θ2 one pair step recorded on each lane: what a shard keeping
/// its samples appends for that pair.
struct pair_thetas {
  std::array<double, kXoshiroLanes> theta1{}, theta2{};
};

/// The per-lane record of one pair step whose channels are `channels`: the
/// lane's fault set D is the faults present in at least `votes` of them, and
/// lane `lane` of acc records what mc::experiment_accumulator::add(θ1, ω·θD,
/// channels[0].any(), D ≠ ∅ && ω > 0) records, bit for bit: θ1 = Σ q[i] over
/// channel 0's faults and θD = Σ q[i] over D, each in ascending fault order
/// from +0.0 (the order of core::masked_q_sum), then the Welford step of
/// stats::running_moments::add on θ1 and on ω·θD with the same IEEE
/// operations in the same order.  The other lanes keep their state.  When
/// `thetas` is not null, its lane `lane` receives the θ1 and ω·θD just
/// recorded.  Both pair steps record each live lane as this does; the
/// samplers without lane tables (the copula, the aliased model) record
/// through it directly.
///
/// A non-empty `weights` span replaces q in θD alone: θD = Σ weights[i] over
/// D, in the same ascending order, and D counts as non-empty only when some
/// fault of D has weights[i] > 0.  That is mc::run_pair_campaign's record,
/// whose weights are per-fault coincidence masses (a shared fault whose
/// regions never coincide is no common failure point).
///
/// Throws std::invalid_argument unless 1 <= votes <= channels.size() <=
/// kMaxFoldVersions and lane < kXoshiroLanes, or when `weights` is neither
/// empty nor of q.size() entries, and std::out_of_range when a channel does
/// not have q.size() bits (a sampler built over another universe).
void record_pair_lane(accumulator_lanes& acc, unsigned lane,
                      std::span<const fault_mask> channels, unsigned votes, double omega,
                      std::span<const double> q, pair_thetas* thetas = nullptr,
                      std::span<const double> weights = {});

// ---------------------------------------------------------------------------
// Counter pair step
// ---------------------------------------------------------------------------

// The counter stream: the fast-simd engine's pinned contract.
//
// A version pair of a counter stream is a pure function of (key, pair
// index): pair s consumes counters [s*D, (s+1)*D) of stats::counter_draw,
// where D = plan.draws_per_pair.  Draw consumption order within a pair is
// word-major over plan.words, each word of up to 64 faults drawn by its
// kind:
//   - zero and one words: no draws, every bit clear or set;
//   - slice words: version a's 64 bits from the bit-slice recurrence (cost
//     = 53 - countr_zero(threshold) draws, lowest set digit first), then
//     version b's bits from the next `cost` draws;
//   - paired32 words: one draw per occupied bit, bit k of a from the high
//     32 bits vs plan.thresholds32[i], bit k of b from the low 32 bits (p
//     realized on the 2^-32 grid);
//   - wide53 words: one draw per occupied bit for version a ((draw >> 11) <
//     u.bernoulli_thresholds()[i]), then one per bit for version b.
// The scalar level of the counter pair step (and of the batch below, which
// runs the same draw) is the normative implementation: the AVX2 and AVX-512
// levels match it decision for decision, pinned by the equivalence fuzz in
// tests/mc_simd_sampler_test.cpp, which also pins the scalar level's words
// by value.  NOT stream-compatible with the xoshiro samplers: fast-simd
// results are their own pinned contract, bit-identical across thread counts
// and SIMD dispatch levels but not comparable per-seed to the `exact`
// engine.

/// Per-word kernel kind of the counter stream (make_counter_sample_plan
/// chooses it).
enum class counter_word_kind : std::uint8_t {
  zero,      ///< one p, 53-bit threshold 0: all bits clear, no draws
  one,       ///< one p, 53-bit threshold 2^53: all bits set, no draws
  slice,     ///< bit-slice recurrence: slice_cost draws per version
  paired32,  ///< one draw per fault covers both versions (hi/lo 32-bit)
  wide53,    ///< one draw per fault PER version (53-bit exact thresholds)
};

struct counter_word_plan {
  counter_word_kind kind = counter_word_kind::zero;
  std::uint8_t occupancy = 0;    ///< faults in this word (1..64)
  std::uint8_t slice_cost = 0;   ///< draws per version when kind == slice
  std::uint32_t draw_offset = 0; ///< first counter of this word within a pair
  std::uint64_t threshold = 0;   ///< shared 53-bit threshold when kind == slice
  /// paired32: the faults whose 32-bit threshold is 2^32 (p >= 1 - 2^-32),
  /// set in both versions whatever the draw.  A level that compares 32-bit
  /// halves sets these bits from here, since 2^32 does not fit its operand.
  std::uint64_t saturated = 0;
};

/// Frozen per-word plan, 32-bit thresholds and per-pair draw budget for one
/// universe.  A pure function of the universe layout; build it once per run,
/// not per sample.
struct counter_sample_plan {
  std::vector<counter_word_plan> words;
  std::uint64_t draws_per_pair = 0;
  std::size_t bits = 0;  ///< universe size the plan was built for
  /// bernoulli_threshold32(p_i) per fault, the paired32 words' thresholds.
  std::vector<std::uint64_t> thresholds32;
};

/// The counter stream's layout over u: a pure function of the p layout,
/// never of the hardware, so kernel selection is part of the deterministic
/// result identity.  A word whose faults share one p is uniform: with 53-bit
/// threshold 0 or 2^53 it is a zero or one word, and it is a slice word when
/// its slice cost is at most half its occupancy (a paired32 word costs one
/// draw per fault per pair, i.e. occupancy/2 per version, so a short tail
/// word must clear a proportionally higher bar).  Every other word is
/// paired32 when u is grid-safe, and wide53 otherwise.  u is grid-safe when
/// realizing every p on the 2^-32 grid (rounded up) inflates E[N1] = Σp and
/// E[Θ1] = Σpq by at most a 1e-6 relative factor; a universe of faults all
/// rarer than the grid (every p = 1e-12 would be sampled as 2^-32 ≈ 2.3e-10,
/// a ~233x oversample) is not.
[[nodiscard]] counter_sample_plan make_counter_sample_plan(const fault_universe& u);

/// Version pair `pair_index` of counter streams keys[0..live), one stream per
/// lane, drawn and recorded in one pass: lane l < live draws the masks a and
/// b of pair pair_index of stream keys[l] as specified above and records
/// what record_pair_lane records for the channels (a, b) with votes 2 and ω
/// = 1 over q = u.q_array(): θ1 = Σq over a's faults and θ2 = Σq over the
/// faults a and b share.  Each mask word of the lanes is added into the sums
/// as it leaves its draw: zero, one and slice words run per lane in scalar
/// code (counter_slice_word), paired32 and wide53 words draw one fault of
/// every lane per vector step and are summed from the registers that drew
/// them.  Lanes l >= live are not drawn
/// (their keys are ignored) and keep their accumulators.  When `thetas` is
/// not null, lane l < live of it receives the θ1 and θ2 just recorded.
/// `level` must not exceed detected_simd_level(); pass active_simd_level().
/// Throws std::invalid_argument when the plan does not match `u`, live >
/// kXoshiroLanes, or a live lane's sample count differs from lane 0's.
void counter_pair_step_lanes(const counter_sample_plan& plan, const fault_universe& u,
                             std::span<const std::uint64_t, kXoshiroLanes> keys,
                             std::uint64_t pair_index, accumulator_lanes& acc, unsigned live,
                             simd_level level, pair_thetas* thetas = nullptr);

/// Sample version-pairs [first_pair, first_pair + count) of counter stream
/// `key` into a[0..count) / b[0..count): the counter pair step's draw with
/// the words stored instead of summed, eight consecutive pairs in the lanes,
/// pair first_pair + j + l in lane l as pair first_pair + j of key + l·D·γ
/// (D = plan.draws_per_pair, γ = stats::kSplitmix64Gamma), which is the same
/// stream l·D counters on; so lane 0 of a one-pair batch is pair first_pair
/// of stream `key`.  Masks are resized to plan.bits as needed.
/// `level` must not exceed detected_simd_level(); pass active_simd_level()
/// unless pinning a level in a test.  Throws std::invalid_argument when the
/// plan does not match `u` or a mask span is shorter than `count`.
void sample_pair_counter_batch(const counter_sample_plan& plan,
                               const fault_universe& u, std::uint64_t key,
                               std::uint64_t first_pair, std::size_t count,
                               std::span<fault_mask> a, std::span<fault_mask> b,
                               simd_level level);

// ---------------------------------------------------------------------------
// xoshiro256++ lanes and their threshold tables
// ---------------------------------------------------------------------------

/// kXoshiroLanes stats::rng states, structure-of-arrays: word[j][l] is state
/// word j of lane l, so each state word of all lanes is one AVX-512 register
/// (two AVX2 registers).
struct xoshiro_lanes {
  std::array<std::array<std::uint64_t, kXoshiroLanes>, 4> word{};

  void set_lane(unsigned l, const stats::rng& r) noexcept {
    const stats::rng::state_type s = r.state();
    for (unsigned j = 0; j < 4; ++j) word[j][l] = s[j];
  }
  [[nodiscard]] stats::rng lane(unsigned l) const noexcept {
    return stats::rng::from_state({word[0][l], word[1][l], word[2][l], word[3][l]});
  }
};

/// The threshold tables of the xoshiro pair step, built once per sampler or
/// run: a common-cause mixture's (make_mixture_lane_tables), whose versions
/// open with a stress draw, or a universe's own (make_threshold_lane_tables),
/// whose versions do not.  The 53-bit tables decide a fault as (r() >> 11) <
/// t, which the scalar and AVX2 levels compare.  The AVX-512 level compares
/// the raw draw against t << 11 instead, the same decision for t < 2^53; a
/// threshold of exactly 2^53 (p = 1, or a stressed p capped at 1) does not
/// fit that operand, so its shifted entry is 0, which never passes, and its
/// fault is set from the per-word *_always masks, as
/// counter_word_plan::saturated does for paired32 words.  Without a stress
/// draw the stressed tables are empty.
struct xoshiro_lane_tables {
  bool stress_draw = false;  ///< every version opens with a stress draw
  std::uint64_t stress = 0;  ///< the stress draw's 53-bit threshold, bernoulli_threshold(rho)
  std::vector<std::uint64_t> stressed, relaxed;  ///< 53-bit thresholds per fault
  std::vector<std::uint64_t> stressed_shifted, relaxed_shifted;  ///< t << 11, 0 at t = 2^53
  std::vector<std::uint64_t> stressed_always, relaxed_always;    ///< per word: t = 2^53
};

/// The tables of a mixture whose stress draw has 53-bit threshold `stress`
/// and whose faults have the 53-bit thresholds `stressed` and `relaxed`.
/// Throws std::invalid_argument when the two differ in length or a threshold
/// exceeds 2^53.
[[nodiscard]] xoshiro_lane_tables make_mixture_lane_tables(std::uint64_t stress,
                                                           std::vector<std::uint64_t> stressed,
                                                           std::vector<std::uint64_t> relaxed);

/// The tables of versions drawn with no stress draw against the 53-bit
/// `thresholds` (a universe's bernoulli_thresholds(): the `exact` engine's
/// draw).  Throws std::invalid_argument when a threshold exceeds 2^53.
[[nodiscard]] xoshiro_lane_tables make_threshold_lane_tables(
    std::span<const std::uint64_t> thresholds);

// ---------------------------------------------------------------------------
// xoshiro pair step
// ---------------------------------------------------------------------------

/// One pair step of `versions` channels on each of the first `live` lanes,
/// drawn and recorded in one pass.  Lane l draws its channels in order from
/// lanes.lane(l), each as the scalar samplers draw a version: with
/// tables.stress_draw, one stress draw, stressed iff (r() >> 11) <
/// tables.stress, then one draw per fault i in index order, fault i present
/// iff (r() >> 11) < stressed[i] when stressed and relaxed[i] otherwise
/// (mc::common_cause_mixture::sample_mask); without it, the fault draws
/// against relaxed[i] alone (mc::sample_mask_from_thresholds).  Lane l then
/// records what record_pair_lane records for those channels, bit for bit,
/// and its stream ends where those scalar draws leave it.  At the vector
/// levels θ1 is summed while channel 0 is drawn and θD while the last channel
/// is drawn, each one masked add per fault in ascending order; the channels
/// before the last keep their hits per fault in `hits` (resized as needed),
/// layered as the per-lane record layers words.  The scalar level draws a
/// lane's channels into `hits` and then records them as record_pair_lane
/// does.  Lanes l >= live keep their streams and accumulators.  When
/// `thetas` is not null, lane l < live of it receives the θ1 and ω·θD just
/// recorded.  `level` must not exceed detected_simd_level(); pass
/// active_simd_level().  Throws std::out_of_range when the tables hold
/// another number of faults than q (a sampler built over another universe),
/// and std::invalid_argument when the tables are inconsistent, unless 1 <=
/// votes <= versions <= kMaxFoldVersions and live <= kXoshiroLanes, or when
/// a live lane's sample count differs from lane 0's.
void xoshiro_pair_step_lanes(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                             std::vector<std::uint64_t>& hits, accumulator_lanes& acc,
                             unsigned versions, unsigned votes, double omega,
                             std::span<const double> q, unsigned live, simd_level level,
                             pair_thetas* thetas = nullptr);

}  // namespace reldiv::core
