// AVX2 level of the fast-simd word kernels and of the xoshiro256++ lane
// kernel.  This is the ONLY translation unit in the repo allowed to include
// <immintrin.h> (reldiv_lint `simd-isolation` enforces it) and the only one
// compiled with -mavx2; it is reached solely through the runtime dispatch in
// simd_sampler.cpp, which calls in only after __builtin_cpu_supports("avx2")
// says the host can run it.  When the toolchain cannot compile AVX2 (non-x86,
// or no -mavx2), the fallback definitions at the bottom keep the link whole
// and report avx2_compiled() == false so dispatch never selects this path.
//
// Decision-for-decision equivalence with the scalar level holds because the
// vector kernels evaluate the identical integer arithmetic four 64-bit lanes
// per instruction, then compare against the same integer thresholds:
//   * fast-simd: stats::counter_draw — the splitmix64 finalizer on
//     key + (counter+1)*gamma, its 64-bit constant multiplies synthesized
//     from three 32x32 _mm256_mul_epu32 partial products;
//   * lane kernel: stats::rng::operator() — xoshiro256++'s adds, xors,
//     shifts and rotates, one independent engine per lane.
// The threshold compares use _mm256_cmpgt_epi64, which is safe in the signed
// domain because both operands are <= 2^53 (hence positive as int64).

#include "core/simd_sampler.inl.hpp"

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

/// stats::counter_draw for counters base..base+3, one per lane (lane 0 =
/// base).  The Weyl start key + (base+1)*gamma is computed scalar (one
/// 64-bit multiply), then the lanes diverge by {0,1,2,3}*gamma and run the
/// splitmix64 finalizer in parallel.
inline __m256i counter_draws4(std::uint64_t key, std::uint64_t base) noexcept {
  constexpr std::uint64_t g = stats::kSplitmix64Gamma;
  const std::uint64_t s0 = key + (base + 1) * g;
  __m256i z = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(s0)),
      _mm256_set_epi64x(static_cast<long long>(3 * g), static_cast<long long>(2 * g),
                        static_cast<long long>(g), 0));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = mul64_const(z, 0xbf58476d1ce4e5b9ULL);
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = mul64_const(z, 0x94d049bb133111ebULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// Pack the four lane-wise `t > v` results (all-ones / all-zero 64-bit
/// lanes) into bits 0..3 via the double-precision sign-bit movemask.
inline std::uint64_t cmplt4(__m256i v, __m256i t) noexcept {
  return static_cast<std::uint64_t>(static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, v)))));
}

struct avx2_word_ops {
  static void paired32_word(std::uint64_t key, std::uint64_t base,
                            const std::uint64_t* t32, unsigned occ,
                            std::uint64_t& wa, std::uint64_t& wb) noexcept {
    std::uint64_t word_a = 0;
    std::uint64_t word_b = 0;
    const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
    unsigned k = 0;
    for (; k + 4 <= occ; k += 4) {
      const __m256i x = counter_draws4(key, base + k);
      const __m256i t = load_u64x4(t32 + k);
      word_a |= cmplt4(_mm256_srli_epi64(x, 32), t) << k;
      word_b |= cmplt4(_mm256_and_si256(x, lo_mask), t) << k;
    }
    for (; k < occ; ++k) {
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
    unsigned k = 0;
    for (; k + 4 <= occ; k += 4) {
      const __m256i x = counter_draws4(key, base + k);
      const __m256i t = load_u64x4(t53 + k);
      w |= cmplt4(_mm256_srli_epi64(x, 11), t) << k;
    }
    for (; k < occ; ++k) {
      w |= static_cast<std::uint64_t>(
               (stats::counter_draw(key, base + k) >> 11) < t53[k])
           << k;
    }
    return w;
  }
};

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

/// The four 64-bit lanes of v, lane 0 first.
inline std::array<std::uint64_t, 4> lanes_of(__m256i v) noexcept {
  return {static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0)),
          static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1)),
          static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2)),
          static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3))};
}

}  // namespace

bool avx2_compiled() noexcept { return true; }

void sample_mixture_lanes_avx2(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                               const std::uint64_t* stressed,
                               const std::uint64_t* relaxed, std::size_t n,
                               std::uint64_t* const* out) noexcept {
  static_assert(kXoshiroLanes == 4, "one xoshiro256++ engine per 64-bit AVX2 lane");
  xoshiro4 g{load_u64x4(lanes.word[0].data()), load_u64x4(lanes.word[1].data()),
             load_u64x4(lanes.word[2].data()), load_u64x4(lanes.word[3].data())};
  // All-ones in the lanes whose development is stressed.
  const __m256i stressed_lanes =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(stress_threshold)),
                         _mm256_srli_epi64(g.next(), 11));
  std::size_t i = 0;
  for (std::size_t blk = 0; i < n; ++blk) {
    const std::size_t hi = n - i < 64 ? n : i + 64;
    __m256i word = _mm256_setzero_si256();
    __m256i bit = _mm256_set1_epi64x(1);
    for (; i < hi; ++i) {
      const __m256i t = _mm256_blendv_epi8(
          _mm256_set1_epi64x(static_cast<long long>(relaxed[i])),
          _mm256_set1_epi64x(static_cast<long long>(stressed[i])), stressed_lanes);
      const __m256i hit = _mm256_cmpgt_epi64(t, _mm256_srli_epi64(g.next(), 11));
      word = _mm256_or_si256(word, _mm256_and_si256(hit, bit));
      bit = _mm256_add_epi64(bit, bit);
    }
    const std::array<std::uint64_t, 4> w = lanes_of(word);
    for (unsigned l = 0; l < 4; ++l) out[l][blk] = w[l];
  }
  lanes.word = {lanes_of(g.s0), lanes_of(g.s1), lanes_of(g.s2), lanes_of(g.s3)};
}

void sample_pair_counter_batch_avx2(const counter_sample_plan& plan,
                                    std::span<const std::uint64_t> t32,
                                    std::span<const std::uint64_t> t53,
                                    std::uint64_t key, std::uint64_t first_pair,
                                    std::size_t count, std::span<fault_mask> a,
                                    std::span<fault_mask> b) {
  sample_pair_counter_batch_impl<avx2_word_ops>(plan, t32, t53, key, first_pair,
                                                count, a, b);
}

}  // namespace reldiv::core::detail

#else  // !__AVX2__

namespace reldiv::core::detail {

bool avx2_compiled() noexcept { return false; }

void sample_pair_counter_batch_avx2(const counter_sample_plan& plan,
                                    std::span<const std::uint64_t> t32,
                                    std::span<const std::uint64_t> t53,
                                    std::uint64_t key, std::uint64_t first_pair,
                                    std::size_t count, std::span<fault_mask> a,
                                    std::span<fault_mask> b) {
  // Unreachable through dispatch (detected_simd_level() caps at scalar when
  // avx2_compiled() is false), but defined so a direct caller still gets
  // correct bits.
  sample_pair_counter_batch_impl<scalar_word_ops>(plan, t32, t53, key,
                                                  first_pair, count, a, b);
}

void sample_mixture_lanes_avx2(xoshiro_lanes& lanes, std::uint64_t stress_threshold,
                               const std::uint64_t* stressed,
                               const std::uint64_t* relaxed, std::size_t n,
                               std::uint64_t* const* out) noexcept {
  // Unreachable through dispatch, like the batch fallback above.
  sample_mixture_lanes_scalar(lanes, stress_threshold, stressed, relaxed, n, out);
}

}  // namespace reldiv::core::detail

#endif  // __AVX2__
