// AVX2 and AVX-512 levels of the counter pair step (fast-simd) and the
// xoshiro pair step.  This is the ONLY translation unit in the repo allowed
// to include <immintrin.h> (reldiv_lint `simd-isolation` enforces it) and
// the only one compiled with -mavx2; the AVX-512 functions carry a
// function-level target attribute (RELDIV_AVX512 below) instead of a TU
// flag, so the build needs no second SIMD TU.  It is reached solely through
// the runtime dispatch in simd_sampler.cpp, which calls an AVX2 function
// only after __builtin_cpu_supports("avx2") and an AVX-512 one only after
// avx512f, avx512dq and avx512bw say the host can run it.  When the
// toolchain cannot compile AVX2 (non-x86, or no -mavx2), the fallback
// definitions at the bottom keep the link whole and report avx2_compiled()
// == false, so dispatch never selects any of these paths.
//
// Every kernel runs one shard stream per 64-bit lane, four lanes per AVX2
// register and eight per AVX-512 register, and is decision-for-decision equal
// to the scalar level because each lane evaluates the identical integer
// arithmetic and compares against the same integer thresholds:
//   * counter step: stats::counter_draw — the splitmix64 finalizer on
//     key + (counter+1)*gamma, one key per lane, one fault of every lane per
//     step; AVX2 synthesizes each 64-bit constant multiply from three 32x32
//     _mm256_mul_epu32 partial products, AVX-512 uses the native 64-bit
//     _mm512_mullo_epi64 and compares straight into a mask;
//   * xoshiro step: stats::rng::operator() — xoshiro256++'s adds, xors,
//     shifts and rotates, one independent engine per lane (AVX-512 folds the
//     xor pairs into _mm512_ternarylogic_epi64 and rotates with one
//     instruction) — drawing every channel of a pair step in turn;
//   * θ sums: each lane's θ1 and θD take the faults it holds in ascending
//     order, as one masked add per fault (AVX2 adds +0.0 in the lanes
//     without it), and the Welford step of stats::running_moments::add runs
//     its IEEE operations in the same order, products and sums each rounded
//     on their own.
// Neither step writes the masks it draws anywhere: the counter step hands
// each finished mask word of the lanes, in registers, to a sink that adds
// the faults of a and of a ∧ b into θ1 and θ2 over the faults any lane
// holds (the batch API's sink stores the word instead), and the xoshiro step
// sums as it draws.  The xoshiro step keeps the channels before the last per
// fault: one hit byte per fault at AVX-512 (bit l: lane l), whose layers the
// last channel's compare reads as a mask register, and four lanes' masks per
// fault at AVX2, whose two halves run one after the other to keep their
// state in the sixteen ymm registers.
// The AVX2 threshold compares use _mm256_cmpgt_epi64, which is safe in the
// signed domain because both operands are <= 2^53 (hence positive as int64);
// the AVX-512 compares are unsigned.  The AVX-512 xoshiro step compares the
// raw draw against the threshold shifted left by 11 (r < t << 11 iff (r >>
// 11) < t), which saves the per-fault shift; thresholds of 2^53 do not fit
// that operand and arrive as per-word "always" masks instead, OR-ed in fault
// by fault only in the words that hold one.
//
// GCC builds _mm512_{srli,slli,rol}_epi64 on _mm512_undefined_epi32(), which
// trips -Wmaybe-uninitialized; the kernels use the _mm512_maskz_* forms with
// an all-ones mask instead, which compile to the same unmasked instructions.

#include "core/simd_sampler.inl.hpp"

#include <algorithm>
#include <array>

#if defined(__AVX2__)

#include <immintrin.h>

namespace reldiv::core::detail {

namespace {

/// Unaligned load of four consecutive 64-bit words into one register.
inline __m256i load_u64x4(const std::uint64_t* p) noexcept {
  // reldiv-lint: allow(wire-cast) vector register load of a word array, not byte serialization
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// All-ones in lane j of the register holding lanes [o, o + 4) iff o + j <
/// live: the lanes a kernel call draws.
inline __m256i live_lanes4(unsigned o, unsigned live) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live),
                            _mm256_set_epi64x(o + 3, o + 2, o + 1, o));
}

/// Four consecutive 64-bit words, the lanes `live` selects (zero elsewhere)
/// and the words `live` selects stored; the others are neither read nor
/// written.
inline __m256i load_u64x4(const std::uint64_t* p, __m256i live) noexcept {
  // reldiv-lint: allow(wire-cast) masked vector load of a word array, not byte serialization
  return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), live);
}
inline void store_u64x4(std::uint64_t* p, __m256i live, __m256i v) noexcept {
  // reldiv-lint: allow(wire-cast) masked vector store to a word array, not byte serialization
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(p), live, v);
}

/// Unaligned store of one register into four consecutive 64-bit words.
inline void store_u64x4(std::uint64_t* p, __m256i v) noexcept {
  // reldiv-lint: allow(wire-cast) vector register store to a word array, not byte serialization
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// x * c for a 64-bit constant c, per 64-bit lane: lo32(x)*lo32(c) +
/// ((lo32(x)*hi32(c) + hi32(x)*lo32(c)) << 32).  The high cross-product
/// overflows out of the lane exactly as scalar uint64 multiplication does.
inline __m256i mul64_const(__m256i x, std::uint64_t c) noexcept {
  const __m256i c_lo = _mm256_set1_epi64x(static_cast<long long>(c & 0xffffffffULL));
  const __m256i c_hi = _mm256_set1_epi64x(static_cast<long long>(c >> 32));
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i lolo = _mm256_mul_epu32(x, c_lo);
  const __m256i lohi = _mm256_mul_epu32(x, c_hi);
  const __m256i hilo = _mm256_mul_epu32(x_hi, c_lo);
  return _mm256_add_epi64(lolo,
                          _mm256_slli_epi64(_mm256_add_epi64(lohi, hilo), 32));
}

/// stats::splitmix64_mix in every 64-bit lane.
inline __m256i splitmix_mix4(__m256i z) noexcept {
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = mul64_const(z, 0xbf58476d1ce4e5b9ULL);
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = mul64_const(z, 0x94d049bb133111ebULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// x <<< K in every 64-bit lane.
template <int K>
inline __m256i rotl64(__m256i x) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

/// Four xoshiro256++ engines, one per lane: stats::rng::operator() step for
/// step.
struct xoshiro4 {
  __m256i s0, s1, s2, s3;

  __m256i next() noexcept {
    const __m256i result = _mm256_add_epi64(rotl64<23>(_mm256_add_epi64(s0, s3)), s0);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl64<45>(s3);
    return result;
  }
};

/// 1 << k for k < 64: the bit a fault sets in its word, loaded as a
/// broadcast operand rather than carried from step to step.
constexpr std::array<std::uint64_t, 64> kFaultBit = [] {
  std::array<std::uint64_t, 64> bits{};
  for (unsigned k = 0; k < 64; ++k) bits[k] = std::uint64_t{1} << k;
  return bits;
}();

// ---------------------------------------------------------------------------
// AVX-512 (F + DQ + BW), function-level target
// ---------------------------------------------------------------------------

// The intrinsics below are AVX-512F except _mm512_mullo_epi64, _load_mask8
// and _store_mask8 (DQ) and _mm512_maskz_loadu_epi8 (BW).  Without BW, GCC 12
// also kept the mixture draw's stressed-lane __mmask8 out of the mask
// registers and reloaded it from the stack once per fault.  The compiler may
// use any extension named here inside these functions, so
// detected_simd_level() probes exactly this set.
#define RELDIV_AVX512 __attribute__((target("avx512f,avx512dq,avx512bw")))

constexpr __mmask8 kAllLanes = 0xff;

/// x >> K / x << K / x <<< K in every 64-bit lane (maskz forms: see the
/// header comment).
template <unsigned K>
RELDIV_AVX512 inline __m512i srli512(__m512i x) noexcept {
  return _mm512_maskz_srli_epi64(kAllLanes, x, K);
}
template <unsigned K>
RELDIV_AVX512 inline __m512i slli512(__m512i x) noexcept {
  return _mm512_maskz_slli_epi64(kAllLanes, x, K);
}
template <int K>
RELDIV_AVX512 inline __m512i rotl512(__m512i x) noexcept {
  return _mm512_maskz_rol_epi64(kAllLanes, x, K);
}

/// stats::splitmix64_mix in every 64-bit lane, with native 64-bit
/// multiplies.
RELDIV_AVX512 inline __m512i splitmix_mix8(__m512i z) noexcept {
  z = _mm512_xor_si512(z, srli512<30>(z));
  z = _mm512_mullo_epi64(z, _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = _mm512_xor_si512(z, srli512<27>(z));
  z = _mm512_mullo_epi64(z, _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(z, srli512<31>(z));
}

/// Eight xoshiro256++ engines, one per lane: stats::rng::operator() step for
/// step, each three-way xor one ternary-logic instruction.
struct xoshiro8 {
  __m512i s0, s1, s2, s3;

  RELDIV_AVX512 __m512i next() noexcept {
    constexpr int kXor3 = 0x96;  // a ^ b ^ c
    const __m512i result = _mm512_add_epi64(rotl512<23>(_mm512_add_epi64(s0, s3)), s0);
    const __m512i t = slli512<17>(s1);
    const __m512i n2 = _mm512_ternarylogic_epi64(s2, s0, t, kXor3);
    const __m512i n1 = _mm512_ternarylogic_epi64(s1, s2, s0, kXor3);
    const __m512i n0 = _mm512_ternarylogic_epi64(s0, s3, s1, kXor3);
    s3 = rotl512<45>(_mm512_xor_si512(s3, s1));
    s2 = n2;
    s1 = n1;
    s0 = n0;
    return result;
  }
};

// --- pair records, AVX2: one call per half of four lanes --------------------

/// OR of the four 64-bit lanes of v.
inline std::uint64_t or_lanes4(__m256i v) noexcept {
  const __m128i x = _mm_or_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_or_si128(x, _mm_unpackhi_epi64(x, x))));
}

/// θ1 + q[i] in the lanes of `first` holding bit i and θD + q[i] in the
/// lanes of `defeated` holding it, for each bit i any lane holds in either,
/// ascending, the two add chains side by side.  The other lanes add +0.0,
/// which leaves their sums' bits as they were: a sum begun at +0.0 is never
/// -0.0 in round-to-nearest.
inline void add_word_q4(__m256d& theta1, __m256d& defeated_q, __m256i first, __m256i defeated,
                        const double* q) noexcept {
  for (std::uint64_t bits = or_lanes4(_mm256_or_si256(first, defeated)); bits != 0;
       bits &= bits - 1) {
    const int i = std::countr_zero(bits);
    const __m256i bit = _mm256_set1_epi64x(static_cast<long long>(kFaultBit[i]));
    const __m256d qi = _mm256_set1_pd(q[i]);
    const __m256d has1 =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(first, bit), bit));
    const __m256d has_d =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(defeated, bit), bit));
    theta1 = _mm256_add_pd(theta1, _mm256_and_pd(has1, qi));
    defeated_q = _mm256_add_pd(defeated_q, _mm256_and_pd(has_d, qi));
  }
}

/// stats::running_moments::add on lanes [o, o + 4) of m, stored to the lanes
/// `live` selects.  The build's -ffp-contract=off keeps each product and sum
/// its own rounding, as in the scalar TU.
inline void welford_add4(moments_lanes& m, unsigned o, __m256d x, const welford_step& s,
                         __m256i live) noexcept {
  const __m256d m1 = _mm256_loadu_pd(m.m1.data() + o);
  const __m256d m2 = _mm256_loadu_pd(m.m2.data() + o);
  const __m256d m3 = _mm256_loadu_pd(m.m3.data() + o);
  const __m256d m4 = _mm256_loadu_pd(m.m4.data() + o);
  __m256d lo = x;
  __m256d hi = x;
  if (!s.first) {
    lo = _mm256_min_pd(x, _mm256_loadu_pd(m.min.data() + o));  // x < min ? x : min
    hi = _mm256_max_pd(x, _mm256_loadu_pd(m.max.data() + o));  // x > max ? x : max
  }
  const __m256d delta = _mm256_sub_pd(x, m1);
  const __m256d delta_n = _mm256_div_pd(delta, _mm256_set1_pd(s.n));
  const __m256d delta_n2 = _mm256_mul_pd(delta_n, delta_n);
  const __m256d term1 = _mm256_mul_pd(_mm256_mul_pd(delta, delta_n), _mm256_set1_pd(s.n0));
  const __m256d m4_term =
      _mm256_sub_pd(_mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(term1, delta_n2),
                                                _mm256_set1_pd(s.quartic)),
                                  _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(6.0), delta_n2), m2)),
                    _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(4.0), delta_n), m3));
  const __m256d m3_term =
      _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(term1, delta_n), _mm256_set1_pd(s.cubic)),
                    _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(3.0), delta_n), m2));
  _mm256_maskstore_pd(m.m1.data() + o, live, _mm256_add_pd(m1, delta_n));
  _mm256_maskstore_pd(m.m4.data() + o, live, _mm256_add_pd(m4, m4_term));
  _mm256_maskstore_pd(m.m3.data() + o, live, _mm256_add_pd(m3, m3_term));
  _mm256_maskstore_pd(m.m2.data() + o, live, _mm256_add_pd(m2, term1));
  _mm256_maskstore_pd(m.min.data() + o, live, lo);
  _mm256_maskstore_pd(m.max.data() + o, live, hi);
}

/// Bits 0..3: the lanes of v that are non-zero.
inline unsigned nonzero_lanes4(__m256i v) noexcept {
  const __m256i zero = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
  return ~static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(zero))) & 0xfu;
}

/// Bits 0..3: the lanes of x equal to 0.0.
inline unsigned zero_lanes4(__m256d x) noexcept {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_EQ_OQ)));
}

/// Lanes [o, o + 4) of one pair's record, those below `live`: the epilogue
/// counter_pair_step_avx2 and xoshiro_pair_step_avx2 share.  Lane o + j
/// records θ1 and ω·θD from lane j of theta1 and defeated_q, and bit j of
/// any1 / any_defeated says whether it holds a fault / a defeated one: what
/// experiment_accumulator::add records, and θ1 and ω·θD into *thetas when
/// it is not null.
inline void record_half4(accumulator_lanes& acc, unsigned o, __m256d theta1,
                         __m256d defeated_q, unsigned any1, unsigned any_defeated,
                         double omega, const welford_step& step, unsigned live,
                         pair_thetas* thetas) noexcept {
  const __m256i live_lanes = live_lanes4(o, live);
  const __m256d theta2 = _mm256_mul_pd(_mm256_set1_pd(omega), defeated_q);
  const unsigned n2 = omega > 0.0 ? any_defeated : 0u;
  const unsigned z1 = zero_lanes4(theta1);
  const unsigned z2 = zero_lanes4(theta2);
  for (unsigned l = o; l < live && l < o + 4; ++l) {
    ++acc.samples[l];
    acc.n1_positive[l] += (any1 >> (l - o)) & 1u;
    acc.n2_positive[l] += (n2 >> (l - o)) & 1u;
    acc.n1_zero_pfd[l] += (z1 >> (l - o)) & 1u;
    acc.n2_zero_pfd[l] += (z2 >> (l - o)) & 1u;
  }
  welford_add4(acc.theta1, o, theta1, step, live_lanes);
  welford_add4(acc.theta2, o, theta2, step, live_lanes);
  if (thetas != nullptr) {
    _mm256_maskstore_pd(thetas->theta1.data() + o, live_lanes, theta1);
    _mm256_maskstore_pd(thetas->theta2.data() + o, live_lanes, theta2);
  }
}

// --- counter draw, AVX2 ------------------------------------------------------

/// The counter pair step's AVX2 draw: lanes 0-3 in one register, lanes 4-7
/// in the other.  Lane l's Weyl state keys[l] + (c + 1) * gamma steps by
/// gamma from counter to counter, and every lane draws.  sink(blk, a, b)
/// takes word blk of versions a and b, lanes [4r, 4r + 4) in a[r] and b[r],
/// zero in the lanes >= live.
template <typename Sink>
inline void draw_counter4(const counter_sample_plan& plan, const std::uint64_t* t32,
                          const std::uint64_t* t53, const std::uint64_t* keys,
                          std::uint64_t pair_index, unsigned live, Sink& sink) noexcept {
  constexpr unsigned kRegs = 2;
  static_assert(kXoshiroLanes == 4 * kRegs, "two AVX2 registers of four 64-bit lanes");
  constexpr std::uint64_t g = stats::kSplitmix64Gamma;
  const __m256i gamma = _mm256_set1_epi64x(static_cast<long long>(g));
  const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i lane_keys[kRegs] = {load_u64x4(keys), load_u64x4(keys + 4)};
  const __m256i live_lanes[kRegs] = {live_lanes4(0, live), live_lanes4(4, live)};
  std::uint64_t a_row[kXoshiroLanes] = {};
  std::uint64_t b_row[kXoshiroLanes] = {};
  for (std::size_t blk = 0; blk < plan.words.size(); ++blk) {
    const counter_word_plan& w = plan.words[blk];
    const std::uint64_t base = pair_index * plan.draws_per_pair + w.draw_offset;
    __m256i wa[kRegs];
    __m256i wb[kRegs];
    if (counter_word_per_lane(w, keys, base, a_row, b_row, live)) {
      for (unsigned r = 0; r < kRegs; ++r) {
        wa[r] = load_u64x4(a_row + 4 * r, live_lanes[r]);
        wb[r] = load_u64x4(b_row + 4 * r, live_lanes[r]);
      }
      sink(blk, wa, wb);
      continue;
    }
    const __m256i start = _mm256_set1_epi64x(static_cast<long long>((base + 1) * g));
    __m256i z[kRegs];
    for (unsigned r = 0; r < kRegs; ++r) {
      z[r] = _mm256_add_epi64(lane_keys[r], start);
      wa[r] = _mm256_setzero_si256();
      wb[r] = _mm256_setzero_si256();
    }
    if (w.kind == counter_word_kind::paired32) {
      // One 32-bit compare per fault decides both versions, as at AVX-512:
      // the high half of the draw (element 2l+1) for a and the low half
      // (element 2l) for b, unsigned through the sign-bias trick (x ^ 2^31 <
      // t ^ 2^31 as signed).  half[h][r] collects the bits of faults 32h to
      // 32h+31; a threshold of 2^32 reads as 0, and its faults are
      // w.saturated.
      const std::uint64_t* t = t32 + (blk << 6);
      const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000U));
      __m256i half[2][kRegs];
      for (unsigned h = 0; h < 2; ++h) {
        for (__m256i& bits : half[h]) bits = _mm256_setzero_si256();
        const unsigned end = w.occupancy > 32 * h ? std::min(w.occupancy - 32 * h, 32u) : 0;
        for (unsigned k = 0; k < end; ++k) {
          const __m256i tk = _mm256_xor_si256(
              _mm256_set1_epi32(static_cast<int>(t[32 * h + k] & 0xffffffffU)), bias);
          const __m256i bit = _mm256_set1_epi32(static_cast<int>(kFaultBit[k]));
          for (unsigned r = 0; r < kRegs; ++r) {
            const __m256i x = splitmix_mix4(z[r]);
            z[r] = _mm256_add_epi64(z[r], gamma);
            const __m256i hit = _mm256_cmpgt_epi32(tk, _mm256_xor_si256(x, bias));
            half[h][r] = _mm256_or_si256(half[h][r], _mm256_and_si256(hit, bit));
          }
        }
      }
      const __m256i saturated = _mm256_set1_epi64x(static_cast<long long>(w.saturated));
      for (unsigned r = 0; r < kRegs; ++r) {
        const __m256i a_bits = _mm256_or_si256(_mm256_srli_epi64(half[0][r], 32),
                                               _mm256_andnot_si256(lo_mask, half[1][r]));
        const __m256i b_bits = _mm256_or_si256(_mm256_and_si256(half[0][r], lo_mask),
                                               _mm256_slli_epi64(half[1][r], 32));
        wa[r] = _mm256_or_si256(a_bits, saturated);
        wb[r] = _mm256_or_si256(b_bits, saturated);
      }
    } else {
      // wide53: one draw per fault per version, a's word first.
      const std::uint64_t* t = t53 + (blk << 6);
      for (__m256i* word : {wa, wb}) {
        for (unsigned k = 0; k < w.occupancy; ++k) {
          const __m256i tk = _mm256_set1_epi64x(static_cast<long long>(t[k]));
          const __m256i bit = _mm256_set1_epi64x(static_cast<long long>(kFaultBit[k]));
          for (unsigned r = 0; r < kRegs; ++r) {
            const __m256i x = splitmix_mix4(z[r]);
            z[r] = _mm256_add_epi64(z[r], gamma);
            const __m256i hit = _mm256_cmpgt_epi64(tk, _mm256_srli_epi64(x, 11));
            word[r] = _mm256_or_si256(word[r], _mm256_and_si256(hit, bit));
          }
        }
      }
    }
    for (unsigned r = 0; r < kRegs; ++r) {
      wa[r] = _mm256_and_si256(wa[r], live_lanes[r]);
      wb[r] = _mm256_and_si256(wb[r], live_lanes[r]);
    }
    sink(blk, wa, wb);
  }
}

/// The counter step's sink at AVX2: θ1 += the q of a's faults and θ2 += the
/// q of a ∧ b's, per half of four lanes, and the lanes holding any.
struct counter_sums4 {
  const double* q;
  __m256d theta1[2], theta2[2];
  __m256i any1[2], any2[2];

  void operator()(std::size_t blk, const __m256i* a, const __m256i* b) noexcept {
    for (unsigned r = 0; r < 2; ++r) {
      const __m256i common = _mm256_and_si256(a[r], b[r]);
      any1[r] = _mm256_or_si256(any1[r], a[r]);
      any2[r] = _mm256_or_si256(any2[r], common);
      add_word_q4(theta1[r], theta2[r], a[r], common, q + (blk << 6));
    }
  }
};

/// The batch's sink at AVX2: word blk of a and b stored, lane-major.
struct counter_store4 {
  std::uint64_t* words;
  std::size_t nw;

  void operator()(std::size_t blk, const __m256i* a, const __m256i* b) const noexcept {
    for (unsigned r = 0; r < 2; ++r) {
      store_u64x4(words + blk * kXoshiroLanes + 4 * r, a[r]);
      store_u64x4(words + (nw + blk) * kXoshiroLanes + 4 * r, b[r]);
    }
  }
};

// --- xoshiro pair step, AVX2 ---------------------------------------------------

/// The part a channel plays in a pair step of `versions` channels: the
/// first sums θ1 and keeps its hits in layer 0 (a lone channel, 1of1, is
/// also the last: θD is θ1); a middle one layers its hits in; the last sums
/// θD over the faults it defeats, `under` its predecessors' layer votes - 2
/// when votes == versions (a fault must be in every channel, so the compare
/// runs under the faults the others all hold), or `over` the layers
/// otherwise.
enum class step_role { first, middle, last_under, last_over };

/// The running sums of an AVX2 pair step on four lanes.
struct step_sums4 {
  __m256d theta1, defeated_q;
  __m256i any1, any_defeated;
};

/// One channel of the AVX2 pair step on the four lanes of g: fault i of
/// lane l is present iff (draw >> 11) < relaxed[i], or < stressed[i] in the
/// lanes `stressed` selects when kBlend.  Layer j of `hits` holds the
/// fault's four lane masks at hits[j·n + i].  Channel v plays role R.
template <step_role R, bool kBlend>
inline void step_channel4(xoshiro4& g, __m256i stressed, const xoshiro_lane_tables& tables,
                          const double* q, std::size_t n, __m256i* hits, unsigned v,
                          unsigned votes, unsigned layers, step_sums4& s) noexcept {
  const std::uint64_t* lo = tables.relaxed.data();
  const std::uint64_t* hi = tables.stressed.data();
  for (std::size_t i = 0; i < n; ++i) {
    __m256i t = _mm256_set1_epi64x(static_cast<long long>(lo[i]));
    if constexpr (kBlend) {
      t = _mm256_blendv_epi8(t, _mm256_set1_epi64x(static_cast<long long>(hi[i])), stressed);
    }
    const __m256i hit = _mm256_cmpgt_epi64(t, _mm256_srli_epi64(g.next(), 11));
    const __m256d qi = _mm256_set1_pd(q[i]);
    __m256i* entry = hits + i;
    if constexpr (R == step_role::first) {
      s.theta1 = _mm256_add_pd(s.theta1, _mm256_and_pd(_mm256_castsi256_pd(hit), qi));
      s.any1 = _mm256_or_si256(s.any1, hit);
      *entry = hit;
    } else if constexpr (R == step_role::middle) {
      for (unsigned j = std::min(layers - 1, v); j > 0; --j) {
        entry[j * n] = _mm256_or_si256(entry[j * n], _mm256_and_si256(entry[(j - 1) * n], hit));
      }
      *entry = _mm256_or_si256(*entry, hit);
    } else {
      __m256i defeated;
      if constexpr (R == step_role::last_under) {
        defeated = _mm256_and_si256(entry[(votes - 2) * n], hit);
      } else {
        const __m256i again = votes >= 2 ? _mm256_and_si256(entry[(votes - 2) * n], hit) : hit;
        defeated = _mm256_or_si256(entry[(votes - 1) * n], again);
      }
      s.defeated_q =
          _mm256_add_pd(s.defeated_q, _mm256_and_pd(_mm256_castsi256_pd(defeated), qi));
      s.any_defeated = _mm256_or_si256(s.any_defeated, defeated);
    }
  }
}

/// One channel of the AVX2 pair step on four lanes: its stress draw when
/// the tables have one, then step_channel4 with the per-lane blend only when
/// a live lane of the four drew stressed.
template <step_role R>
inline void step_draw4(xoshiro4& g, __m256i live_lanes, const xoshiro_lane_tables& tables,
                       const double* q, std::size_t n, __m256i* hits, unsigned v,
                       unsigned votes, unsigned layers, step_sums4& s) noexcept {
  __m256i stressed = _mm256_setzero_si256();
  if (tables.stress_draw) {
    stressed = _mm256_and_si256(
        live_lanes,
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(tables.stress)),
                           _mm256_srli_epi64(g.next(), 11)));
  }
  if (_mm256_testz_si256(stressed, stressed)) {
    step_channel4<R, false>(g, stressed, tables, q, n, hits, v, votes, layers, s);
  } else {
    step_channel4<R, true>(g, stressed, tables, q, n, hits, v, votes, layers, s);
  }
}

/// xoshiro_pair_step_avx2 on lanes [o, o + 4) of one register, of which those
/// below `live` keep their streams and record; `hits` is this half's.
void step_half_avx2(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                    std::uint64_t* layer_words, accumulator_lanes& acc, unsigned versions,
                    unsigned votes, double omega, const double* q, std::size_t n, unsigned o,
                    unsigned live, const welford_step& step, pair_thetas* thetas) noexcept {
  // __m256i may alias the words; the layers are 64-byte aligned.
  auto* hits = static_cast<__m256i*>(static_cast<void*>(layer_words));
  const __m256i live_lanes = live_lanes4(o, live);
  xoshiro4 g{load_u64x4(lanes.word[0].data() + o), load_u64x4(lanes.word[1].data() + o),
             load_u64x4(lanes.word[2].data() + o), load_u64x4(lanes.word[3].data() + o)};
  step_sums4 s{_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_si256(),
               _mm256_setzero_si256()};
  const unsigned layers = hit_layers(versions, votes);
  const unsigned last = versions - 1;
  std::fill_n(hits + n, (layers - 1) * n, _mm256_setzero_si256());
  step_draw4<step_role::first>(g, live_lanes, tables, q, n, hits, 0, votes, layers, s);
  if (last == 0) {
    s.defeated_q = s.theta1;  // 1of1: the defeated set is channel 0's
    s.any_defeated = s.any1;
  } else {
    for (unsigned v = 1; v < last; ++v) {
      step_draw4<step_role::middle>(g, live_lanes, tables, q, n, hits, v, votes, layers, s);
    }
    if (votes == versions) {
      step_draw4<step_role::last_under>(g, live_lanes, tables, q, n, hits, last, votes, layers,
                                        s);
    } else {
      step_draw4<step_role::last_over>(g, live_lanes, tables, q, n, hits, last, votes, layers,
                                       s);
    }
  }
  store_u64x4(lanes.word[0].data() + o, live_lanes, g.s0);
  store_u64x4(lanes.word[1].data() + o, live_lanes, g.s1);
  store_u64x4(lanes.word[2].data() + o, live_lanes, g.s2);
  store_u64x4(lanes.word[3].data() + o, live_lanes, g.s3);
  record_half4(acc, o, s.theta1, s.defeated_q, nonzero_lanes4(s.any1),
               nonzero_lanes4(s.any_defeated), omega, step, live, thetas);
}

// --- pair records, AVX-512: all eight lanes in one register -----------------

/// OR of the eight 64-bit lanes of v.  _mm512_reduce_or_epi64 and
/// _mm512_castsi512_si256 extract halves onto an undefined register, like
/// the unmasked shifts (see the header comment); the maskz extracts do not.
RELDIV_AVX512 inline std::uint64_t or_lanes8(__m512i v) noexcept {
  return or_lanes4(_mm256_or_si256(_mm512_maskz_extracti64x4_epi64(kAllLanes, v, 0),
                                   _mm512_maskz_extracti64x4_epi64(kAllLanes, v, 1)));
}

/// θ1 + q[i] in the lanes of `first` holding bit i and θD + q[i] in the
/// lanes of `defeated` holding it, for each bit i any lane holds in either,
/// ascending; the other lanes keep their sums (masked adds).  Each sum still
/// takes its lane's faults in ascending order, and the two independent add
/// chains run side by side in one pass over the bits.
RELDIV_AVX512 inline void add_word_q8(__m512d& theta1, __m512d& defeated_q, __m512i first,
                                      __m512i defeated, const double* q) noexcept {
  for (std::uint64_t bits = or_lanes8(_mm512_or_si512(first, defeated)); bits != 0;
       bits &= bits - 1) {
    const int i = std::countr_zero(bits);
    const __m512i bit = _mm512_set1_epi64(static_cast<long long>(kFaultBit[i]));
    const __m512d qi = _mm512_set1_pd(q[i]);
    theta1 = _mm512_mask_add_pd(theta1, _mm512_test_epi64_mask(first, bit), theta1, qi);
    defeated_q =
        _mm512_mask_add_pd(defeated_q, _mm512_test_epi64_mask(defeated, bit), defeated_q, qi);
  }
}

// Products and sums in the maskz forms: avx512f implies FMA, and GCC fuses a
// plain _mm512_mul_pd feeding _mm512_add_pd into one rounding unless the
// build says -ffp-contract=off; the masked builtins are never fused.
RELDIV_AVX512 inline __m512d add8(__m512d a, __m512d b) noexcept {
  return _mm512_maskz_add_pd(kAllLanes, a, b);
}
RELDIV_AVX512 inline __m512d sub8(__m512d a, __m512d b) noexcept {
  return _mm512_maskz_sub_pd(kAllLanes, a, b);
}
RELDIV_AVX512 inline __m512d mul8(__m512d a, __m512d b) noexcept {
  return _mm512_maskz_mul_pd(kAllLanes, a, b);
}

/// stats::running_moments::add on the lanes of m, stored to the lanes `live`
/// selects.
RELDIV_AVX512 inline void welford_add8(moments_lanes& m, __m512d x, const welford_step& s,
                                       __mmask8 live) noexcept {
  const __m512d m1 = _mm512_loadu_pd(m.m1.data());
  const __m512d m2 = _mm512_loadu_pd(m.m2.data());
  const __m512d m3 = _mm512_loadu_pd(m.m3.data());
  const __m512d m4 = _mm512_loadu_pd(m.m4.data());
  __m512d lo = x;
  __m512d hi = x;
  if (!s.first) {
    lo = _mm512_maskz_min_pd(kAllLanes, x, _mm512_loadu_pd(m.min.data()));  // x < min ? x : min
    hi = _mm512_maskz_max_pd(kAllLanes, x, _mm512_loadu_pd(m.max.data()));  // x > max ? x : max
  }
  const __m512d delta = sub8(x, m1);
  const __m512d delta_n = _mm512_maskz_div_pd(kAllLanes, delta, _mm512_set1_pd(s.n));
  const __m512d delta_n2 = mul8(delta_n, delta_n);
  const __m512d term1 = mul8(mul8(delta, delta_n), _mm512_set1_pd(s.n0));
  const __m512d m4_term =
      sub8(add8(mul8(mul8(term1, delta_n2), _mm512_set1_pd(s.quartic)),
                mul8(mul8(_mm512_set1_pd(6.0), delta_n2), m2)),
           mul8(mul8(_mm512_set1_pd(4.0), delta_n), m3));
  const __m512d m3_term = sub8(mul8(mul8(term1, delta_n), _mm512_set1_pd(s.cubic)),
                               mul8(mul8(_mm512_set1_pd(3.0), delta_n), m2));
  _mm512_mask_storeu_pd(m.m1.data(), live, add8(m1, delta_n));
  _mm512_mask_storeu_pd(m.m4.data(), live, add8(m4, m4_term));
  _mm512_mask_storeu_pd(m.m3.data(), live, add8(m3, m3_term));
  _mm512_mask_storeu_pd(m.m2.data(), live, add8(m2, term1));
  _mm512_mask_storeu_pd(m.min.data(), live, lo);
  _mm512_mask_storeu_pd(m.max.data(), live, hi);
}

/// c[l] += 1 in the lanes `k` selects.
RELDIV_AVX512 inline void count8(std::array<std::uint64_t, kXoshiroLanes>& c,
                                 __mmask8 k) noexcept {
  _mm512_mask_storeu_epi64(c.data(), k,
                           _mm512_add_epi64(_mm512_loadu_si512(c.data()), _mm512_set1_epi64(1)));
}

/// One pair's record on the lanes `live` selects: the epilogue
/// counter_pair_step_avx512 and xoshiro_pair_step_avx512 share.  Lane l
/// records θ1 and ω·θD from lane l of theta1 and defeated_q, and bit l of
/// any1 / any_defeated says whether it holds a fault / a defeated one: what
/// experiment_accumulator::add records, and θ1 and ω·θD into *thetas when it
/// is not null.
RELDIV_AVX512 inline void record_pair8(accumulator_lanes& acc, __m512d theta1,
                                       __m512d defeated_q, __mmask8 any1,
                                       __mmask8 any_defeated, double omega,
                                       const welford_step& step, __mmask8 live,
                                       pair_thetas* thetas) noexcept {
  const __m512d theta2 = mul8(_mm512_set1_pd(omega), defeated_q);
  const __m512d zero = _mm512_setzero_pd();
  count8(acc.samples, live);
  count8(acc.n1_positive, static_cast<__mmask8>(any1 & live));
  if (omega > 0.0) count8(acc.n2_positive, static_cast<__mmask8>(any_defeated & live));
  count8(acc.n1_zero_pfd, _mm512_mask_cmp_pd_mask(live, theta1, zero, _CMP_EQ_OQ));
  count8(acc.n2_zero_pfd, _mm512_mask_cmp_pd_mask(live, theta2, zero, _CMP_EQ_OQ));
  welford_add8(acc.theta1, theta1, step, live);
  welford_add8(acc.theta2, theta2, step, live);
  if (thetas != nullptr) {
    _mm512_mask_storeu_pd(thetas->theta1.data(), live, theta1);
    _mm512_mask_storeu_pd(thetas->theta2.data(), live, theta2);
  }
}

// --- counter draw, AVX-512 ---------------------------------------------------

/// One version's wide53 word in every lane: bit k set iff (draw >> 11) <
/// t[k], drawing counter after counter from the Weyl states z.
RELDIV_AVX512 inline __m512i wide53_word8(__m512i& z, __m512i gamma, const std::uint64_t* t,
                                          unsigned occupancy) noexcept {
  __m512i word = _mm512_setzero_si512();
  for (unsigned k = 0; k < occupancy; ++k) {
    const __m512i x = splitmix_mix8(z);
    z = _mm512_add_epi64(z, gamma);
    const __mmask8 hit =
        _mm512_cmplt_epu64_mask(srli512<11>(x), _mm512_set1_epi64(static_cast<long long>(t[k])));
    word = _mm512_mask_or_epi64(word, hit, word,
                                _mm512_set1_epi64(static_cast<long long>(kFaultBit[k])));
  }
  return word;
}

/// The counter pair step's AVX-512 draw: all eight lanes in one register; a
/// lane's compare result sets bit k of its word through a masked or of a
/// broadcast bit constant.  sink(blk, a, b) takes word blk of versions a
/// and b of every lane, zero in the lanes >= live.
template <typename Sink>
RELDIV_AVX512 inline void draw_counter8(const counter_sample_plan& plan,
                                        const std::uint64_t* t32, const std::uint64_t* t53,
                                        const std::uint64_t* keys, std::uint64_t pair_index,
                                        unsigned live, Sink& sink) noexcept {
  static_assert(kXoshiroLanes == 8, "one counter stream per 64-bit AVX-512 lane");
  constexpr std::uint64_t g = stats::kSplitmix64Gamma;
  const __mmask8 live_lanes = static_cast<__mmask8>((1u << live) - 1);
  const __m512i gamma = _mm512_set1_epi64(static_cast<long long>(g));
  const __m512i lane_keys = _mm512_loadu_si512(keys);
  std::uint64_t a_row[kXoshiroLanes] = {};
  std::uint64_t b_row[kXoshiroLanes] = {};
  for (std::size_t blk = 0; blk < plan.words.size(); ++blk) {
    const counter_word_plan& w = plan.words[blk];
    const std::uint64_t base = pair_index * plan.draws_per_pair + w.draw_offset;
    if (counter_word_per_lane(w, keys, base, a_row, b_row, live)) {
      sink(blk, _mm512_maskz_loadu_epi64(live_lanes, a_row),
           _mm512_maskz_loadu_epi64(live_lanes, b_row));
      continue;
    }
    __m512i z =
        _mm512_add_epi64(lane_keys, _mm512_set1_epi64(static_cast<long long>((base + 1) * g)));
    __m512i wa;
    __m512i wb;
    if (w.kind == counter_word_kind::paired32) {
      // One unsigned 32-bit compare per fault decides both versions: the high
      // half of lane l's draw (32-bit element 2l+1) against t for a, the low
      // half (element 2l) for b.  Element 2l+1 / 2l of half[0] collects a's
      // / b's bits of faults 0-31, of half[1] those of faults 32-63.  A
      // threshold of 2^32 reads as 0 here and never passes; its faults are
      // w.saturated.
      const std::uint64_t* t = t32 + (blk << 6);
      __m512i half[2];
      for (unsigned h = 0; h < 2; ++h) {
        __m512i bits = _mm512_setzero_si512();
        const unsigned end = w.occupancy > 32 * h ? std::min(w.occupancy - 32 * h, 32u) : 0;
        const std::uint64_t* th = t + 32 * h;
        for (unsigned k = 0; k < end; ++k) {
          const __m512i x = splitmix_mix8(z);
          z = _mm512_add_epi64(z, gamma);
          const __mmask16 hit = _mm512_cmplt_epu32_mask(
              x, _mm512_set1_epi32(static_cast<int>(th[k] & 0xffffffffU)));
          bits = _mm512_mask_or_epi32(bits, hit, bits,
                                      _mm512_set1_epi32(static_cast<int>(kFaultBit[k])));
        }
        half[h] = bits;
      }
      constexpr int kOrAnd = 0xf8;     // a | (b & c)
      constexpr int kOrAndNot = 0xf4;  // a | (b & ~c)
      const __m512i hi_dwords = _mm512_set1_epi64(static_cast<long long>(0xffffffff00000000ULL));
      const __m512i saturated = _mm512_set1_epi64(static_cast<long long>(w.saturated));
      wa = _mm512_or_si512(
          _mm512_ternarylogic_epi64(srli512<32>(half[0]), half[1], hi_dwords, kOrAnd), saturated);
      wb = _mm512_or_si512(
          _mm512_ternarylogic_epi64(slli512<32>(half[1]), half[0], hi_dwords, kOrAndNot),
          saturated);
    } else {
      // wide53: one draw per fault per version, a's word first.
      wa = wide53_word8(z, gamma, t53 + (blk << 6), w.occupancy);
      wb = wide53_word8(z, gamma, t53 + (blk << 6), w.occupancy);
    }
    sink(blk, _mm512_maskz_mov_epi64(live_lanes, wa), _mm512_maskz_mov_epi64(live_lanes, wb));
  }
}

/// The counter step's sink at AVX-512: θ1 += the q of a's faults and θ2 +=
/// the q of a ∧ b's, and the lanes holding any.
struct counter_sums8 {
  const double* q;
  __m512d theta1, theta2;
  __m512i any1, any2;

  RELDIV_AVX512 void operator()(std::size_t blk, __m512i a, __m512i b) noexcept {
    const __m512i common = _mm512_and_si512(a, b);
    any1 = _mm512_or_si512(any1, a);
    any2 = _mm512_or_si512(any2, common);
    add_word_q8(theta1, theta2, a, common, q + (blk << 6));
  }
};

/// The batch's sink at AVX-512: word blk of a and b stored, lane-major.
struct counter_store8 {
  std::uint64_t* words;
  std::size_t nw;

  RELDIV_AVX512 void operator()(std::size_t blk, __m512i a, __m512i b) const noexcept {
    _mm512_storeu_si512(words + blk * kXoshiroLanes, a);
    _mm512_storeu_si512(words + (nw + blk) * kXoshiroLanes, b);
  }
};

// --- xoshiro pair step, AVX-512 -------------------------------------------------

/// OR of the n bytes at p: the lanes any of n hit bytes holds.
RELDIV_AVX512 inline __mmask8 or_bytes8(const std::uint8_t* p, std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) acc = _mm512_or_si512(acc, _mm512_loadu_si512(p + i));
  if (i < n) {
    acc = _mm512_or_si512(acc, _mm512_maskz_loadu_epi8((__mmask64{1} << (n - i)) - 1, p + i));
  }
  std::uint64_t x = or_lanes8(acc);
  x |= x >> 32;
  x |= x >> 16;
  x |= x >> 8;
  return static_cast<__mmask8>(x);
}

/// The running sums of an AVX-512 pair step.
struct step_sums8 {
  __m512d theta1, defeated_q;
};

/// Faults [i, i + occupancy) of one channel of the AVX-512 pair step, all of
/// one word: fault i of lane l is present iff its raw draw < lo[i], or <
/// hi[i] in the lanes `stressed` selects when kBlend (the shifted tables),
/// or, when kSat, its bit is set in the word's lo_sat (lanes not stressed) or
/// hi_sat (stressed lanes).  Layer j of `hits` holds one byte per fault at
/// j·n.  Channel v plays role R.
template <step_role R, bool kBlend, bool kSat>
RELDIV_AVX512 inline void step_word8(xoshiro8& g, const std::uint64_t* lo,
                                     const std::uint64_t* hi, std::uint64_t lo_sat,
                                     std::uint64_t hi_sat, __mmask8 stressed, const double* q,
                                     std::size_t i, unsigned occupancy, std::size_t n,
                                     std::uint8_t* hits, unsigned v, unsigned votes,
                                     unsigned layers, step_sums8& s) noexcept {
  for (unsigned k = 0; k < occupancy; ++k, ++i) {
    __m512i t = _mm512_set1_epi64(static_cast<long long>(lo[i]));
    if constexpr (kBlend) t = _mm512_mask_set1_epi64(t, stressed, static_cast<long long>(hi[i]));
    const __m512i x = g.next();
    unsigned sat = 0;
    if constexpr (kSat) {
      sat = ((0u - static_cast<unsigned>((lo_sat >> k) & 1)) & ~static_cast<unsigned>(stressed)) |
            ((0u - static_cast<unsigned>((hi_sat >> k) & 1)) & static_cast<unsigned>(stressed));
    }
    std::uint8_t* entry = hits + i;
    if constexpr (R == step_role::last_under) {
      // Defeated iff drawn here and already in every earlier channel.
      const __mmask8 under = _load_mask8(entry + (votes - 2) * n);
      const auto defeated = static_cast<__mmask8>(_mm512_mask_cmplt_epu64_mask(under, x, t) |
                                                  (sat & under));
      s.defeated_q =
          _mm512_mask_add_pd(s.defeated_q, defeated, s.defeated_q, _mm512_set1_pd(q[i]));
      _store_mask8(entry, defeated);
      continue;
    }
    const auto hit = static_cast<__mmask8>(_mm512_cmplt_epu64_mask(x, t) | sat);
    if constexpr (R == step_role::first) {
      s.theta1 = _mm512_mask_add_pd(s.theta1, hit, s.theta1, _mm512_set1_pd(q[i]));
      _store_mask8(entry, hit);
    } else if constexpr (R == step_role::middle) {
      for (unsigned j = std::min(layers - 1, v); j > 0; --j) {
        entry[j * n] = static_cast<std::uint8_t>(entry[j * n] | (entry[(j - 1) * n] & hit));
      }
      entry[0] = static_cast<std::uint8_t>(entry[0] | hit);
    } else {
      const unsigned again = votes >= 2 ? entry[(votes - 2) * n] & hit : hit;
      const auto defeated = static_cast<__mmask8>(entry[(votes - 1) * n] | again);
      s.defeated_q =
          _mm512_mask_add_pd(s.defeated_q, defeated, s.defeated_q, _mm512_set1_pd(q[i]));
      _store_mask8(entry, defeated);
    }
  }
}

/// One channel of the AVX-512 pair step: its stress draw when the tables
/// have one, then each word through step_word8, blending thresholds only
/// when a live lane drew stressed and OR-ing in saturated faults only in the
/// words that hold one for the lanes' tables.
template <step_role R>
RELDIV_AVX512 inline void step_draw8(xoshiro8& g, __mmask8 live,
                                     const xoshiro_lane_tables& tables, const double* q,
                                     std::size_t n, std::uint8_t* hits, unsigned v,
                                     unsigned votes, unsigned layers, step_sums8& s) noexcept {
  __mmask8 stressed = 0;
  if (tables.stress_draw) {
    stressed = _mm512_mask_cmplt_epu64_mask(
        live, srli512<11>(g.next()), _mm512_set1_epi64(static_cast<long long>(tables.stress)));
  }
  const std::uint64_t* lo = tables.relaxed_shifted.data();
  const std::uint64_t* hi = tables.stressed_shifted.data();
  for (std::size_t blk = 0, i = 0; i < n; ++blk, i += 64) {
    const auto occupancy = static_cast<unsigned>(n - i < 64 ? n - i : 64);
    const std::uint64_t lo_sat = tables.relaxed_always[blk];
    if (stressed == 0) {
      if (lo_sat == 0) {
        step_word8<R, false, false>(g, lo, hi, 0, 0, stressed, q, i, occupancy, n, hits, v,
                                    votes, layers, s);
      } else {
        step_word8<R, false, true>(g, lo, hi, lo_sat, 0, stressed, q, i, occupancy, n, hits,
                                   v, votes, layers, s);
      }
      continue;
    }
    const std::uint64_t hi_sat = tables.stressed_always[blk];
    if ((lo_sat | hi_sat) == 0) {
      step_word8<R, true, false>(g, lo, hi, 0, 0, stressed, q, i, occupancy, n, hits, v, votes,
                                 layers, s);
    } else {
      step_word8<R, true, true>(g, lo, hi, lo_sat, hi_sat, stressed, q, i, occupancy, n, hits,
                                v, votes, layers, s);
    }
  }
}

}  // namespace

bool avx2_compiled() noexcept { return true; }

__attribute__((aligned(64)))
void xoshiro_pair_step_avx2(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                            std::uint64_t* hits, accumulator_lanes& acc, unsigned versions,
                            unsigned votes, double omega, const double* q, std::size_t n,
                            unsigned live, const welford_step& step,
                            pair_thetas* thetas) noexcept {
  // Lanes 0-3, then lanes 4-7 when any of them is live, each four in one
  // register through every channel: two registers' streams, sums and
  // thresholds together would not fit the sixteen ymm registers.  Every
  // lane of a half draws; only those below `live` keep their streams and
  // record.  Each θ adds q[i] in the lanes holding fault i and +0.0 in the
  // others (add_word_q4 says why that keeps the bits).
  static_assert(kXoshiroLanes == 8, "two AVX2 registers of four 64-bit lanes");
  step_half_avx2(lanes, tables, hits, acc, versions, votes, omega, q, n, 0, live, step, thetas);
  if (live > 4) {
    step_half_avx2(lanes, tables, hits, acc, versions, votes, omega, q, n, 4, live, step,
                   thetas);
  }
}

__attribute__((aligned(64)))
RELDIV_AVX512 void xoshiro_pair_step_avx512(xoshiro_lanes& lanes,
                                            const xoshiro_lane_tables& tables,
                                            std::uint64_t* layer_words, accumulator_lanes& acc,
                                            unsigned versions, unsigned votes, double omega,
                                            const double* q, std::size_t n, unsigned live,
                                            const welford_step& step,
                                            pair_thetas* thetas) noexcept {
  // All eight lanes in one register.  Channel 0 adds q[i] into θ1 under its
  // hit byte and stores the byte; the last channel adds it into θD under its
  // defeated byte and stores that over layer 0.  The lanes holding a fault
  // (a defeated one) are the OR of those bytes.
  static_assert(kXoshiroLanes == 8, "one xoshiro256++ engine per 64-bit AVX-512 lane");
  auto* hits = static_cast<std::uint8_t*>(static_cast<void*>(layer_words));
  const auto live_lanes = static_cast<__mmask8>((1u << live) - 1);
  xoshiro8 g{_mm512_loadu_si512(lanes.word[0].data()), _mm512_loadu_si512(lanes.word[1].data()),
             _mm512_loadu_si512(lanes.word[2].data()), _mm512_loadu_si512(lanes.word[3].data())};
  step_sums8 s{_mm512_setzero_pd(), _mm512_setzero_pd()};
  const unsigned layers = hit_layers(versions, votes);
  const unsigned last = versions - 1;
  std::fill_n(hits + n, (layers - 1) * n, std::uint8_t{0});
  step_draw8<step_role::first>(g, live_lanes, tables, q, n, hits, 0, votes, layers, s);
  const __mmask8 any1 = or_bytes8(hits, n);
  __mmask8 any_defeated = any1;
  if (last == 0) {
    s.defeated_q = s.theta1;  // 1of1: the defeated set is channel 0's
  } else {
    for (unsigned v = 1; v < last; ++v) {
      step_draw8<step_role::middle>(g, live_lanes, tables, q, n, hits, v, votes, layers, s);
    }
    if (votes == versions) {
      step_draw8<step_role::last_under>(g, live_lanes, tables, q, n, hits, last, votes, layers,
                                        s);
    } else {
      step_draw8<step_role::last_over>(g, live_lanes, tables, q, n, hits, last, votes, layers,
                                       s);
    }
    any_defeated = or_bytes8(hits, n);
  }
  _mm512_mask_storeu_epi64(lanes.word[0].data(), live_lanes, g.s0);
  _mm512_mask_storeu_epi64(lanes.word[1].data(), live_lanes, g.s1);
  _mm512_mask_storeu_epi64(lanes.word[2].data(), live_lanes, g.s2);
  _mm512_mask_storeu_epi64(lanes.word[3].data(), live_lanes, g.s3);
  record_pair8(acc, s.theta1, s.defeated_q, any1, any_defeated, omega, step, live_lanes, thetas);
}

__attribute__((aligned(64)))
void counter_pair_step_avx2(const counter_sample_plan& plan, const std::uint64_t* t32,
                            const std::uint64_t* t53, const std::uint64_t* keys,
                            std::uint64_t pair_index, accumulator_lanes& acc, const double* q,
                            unsigned live, const welford_step& step,
                            pair_thetas* thetas) noexcept {
  // Both halves draw each word together; each half's θ1 and θ2 take its
  // lanes' faults in ascending order, and the halves record one after the
  // other.
  const __m256d zero = _mm256_setzero_pd();
  const __m256i none = _mm256_setzero_si256();
  counter_sums4 sums{q, {zero, zero}, {zero, zero}, {none, none}, {none, none}};
  draw_counter4(plan, t32, t53, keys, pair_index, live, sums);
  for (unsigned r = 0; r < 2 && 4 * r < live; ++r) {
    record_half4(acc, 4 * r, sums.theta1[r], sums.theta2[r], nonzero_lanes4(sums.any1[r]),
                 nonzero_lanes4(sums.any2[r]), 1.0, step, live, thetas);
  }
}

void counter_pair_words_avx2(const counter_sample_plan& plan, const std::uint64_t* t32,
                             const std::uint64_t* t53, const std::uint64_t* keys,
                             std::uint64_t pair_index, std::uint64_t* words,
                             unsigned live) noexcept {
  counter_store4 store{words, plan.words.size()};
  draw_counter4(plan, t32, t53, keys, pair_index, live, store);
}

__attribute__((aligned(64)))
RELDIV_AVX512 void counter_pair_step_avx512(const counter_sample_plan& plan,
                                            const std::uint64_t* t32, const std::uint64_t* t53,
                                            const std::uint64_t* keys, std::uint64_t pair_index,
                                            accumulator_lanes& acc, const double* q,
                                            unsigned live, const welford_step& step,
                                            pair_thetas* thetas) noexcept {
  // Each word of the eight lanes adds its faults into the sums straight from
  // the draw's registers, one masked add per fault any lane holds.
  const __m512d zero = _mm512_setzero_pd();
  const __m512i none = _mm512_setzero_si512();
  counter_sums8 sums{q, zero, zero, none, none};
  draw_counter8(plan, t32, t53, keys, pair_index, live, sums);
  record_pair8(acc, sums.theta1, sums.theta2, _mm512_test_epi64_mask(sums.any1, sums.any1),
               _mm512_test_epi64_mask(sums.any2, sums.any2), 1.0, step,
               static_cast<__mmask8>((1u << live) - 1), thetas);
}

RELDIV_AVX512 void counter_pair_words_avx512(const counter_sample_plan& plan,
                                             const std::uint64_t* t32, const std::uint64_t* t53,
                                             const std::uint64_t* keys,
                                             std::uint64_t pair_index, std::uint64_t* words,
                                             unsigned live) noexcept {
  counter_store8 store{words, plan.words.size()};
  draw_counter8(plan, t32, t53, keys, pair_index, live, store);
}

#undef RELDIV_AVX512

}  // namespace reldiv::core::detail

#else  // !__AVX2__

namespace reldiv::core::detail {

bool avx2_compiled() noexcept { return false; }

__attribute__((aligned(64)))
void counter_pair_step_avx2(const counter_sample_plan& plan, const std::uint64_t* t32,
                            const std::uint64_t* t53, const std::uint64_t* keys,
                            std::uint64_t pair_index, accumulator_lanes& acc, const double* q,
                            unsigned live, const welford_step& step,
                            pair_thetas* thetas) noexcept {
  // Unreachable through dispatch (detected_simd_level() caps at scalar when
  // avx2_compiled() is false), but defined so a direct caller still gets
  // correct bits.
  counter_pair_step_scalar(plan, t32, t53, keys, pair_index, acc, q, live, step, thetas);
}

__attribute__((aligned(64)))
void counter_pair_step_avx512(const counter_sample_plan& plan, const std::uint64_t* t32,
                              const std::uint64_t* t53, const std::uint64_t* keys,
                              std::uint64_t pair_index, accumulator_lanes& acc,
                              const double* q, unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept {
  // Unreachable through dispatch, like the AVX2 fallback above; so are the
  // fallbacks below.
  counter_pair_step_scalar(plan, t32, t53, keys, pair_index, acc, q, live, step, thetas);
}

void counter_pair_words_avx2(const counter_sample_plan& plan, const std::uint64_t* t32,
                             const std::uint64_t* t53, const std::uint64_t* keys,
                             std::uint64_t pair_index, std::uint64_t* words,
                             unsigned live) noexcept {
  counter_pair_words_scalar(plan, t32, t53, keys, pair_index, words, live);
}

void counter_pair_words_avx512(const counter_sample_plan& plan, const std::uint64_t* t32,
                               const std::uint64_t* t53, const std::uint64_t* keys,
                               std::uint64_t pair_index, std::uint64_t* words,
                               unsigned live) noexcept {
  counter_pair_words_scalar(plan, t32, t53, keys, pair_index, words, live);
}

__attribute__((aligned(64)))
void xoshiro_pair_step_avx2(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                            std::uint64_t* hits, accumulator_lanes& acc, unsigned versions,
                            unsigned votes, double omega, const double* q, std::size_t n,
                            unsigned live, const welford_step& step,
                            pair_thetas* thetas) noexcept {
  xoshiro_pair_step_scalar(lanes, tables, hits, acc, versions, votes, omega, q, n, live, step,
                           thetas);
}

__attribute__((aligned(64)))
void xoshiro_pair_step_avx512(xoshiro_lanes& lanes, const xoshiro_lane_tables& tables,
                              std::uint64_t* hits, accumulator_lanes& acc, unsigned versions,
                              unsigned votes, double omega, const double* q, std::size_t n,
                              unsigned live, const welford_step& step,
                              pair_thetas* thetas) noexcept {
  xoshiro_pair_step_scalar(lanes, tables, hits, acc, versions, votes, omega, q, n, live, step,
                           thetas);
}

}  // namespace reldiv::core::detail

#endif  // __AVX2__
