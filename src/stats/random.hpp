#pragma once
// Deterministic, high-quality pseudo-random number generation.
//
// The library never uses wall-clock seeding: every stochastic component
// takes an explicit 64-bit seed so that experiments, tests and benches are
// exactly reproducible.  The engine is xoshiro256++ (Blackman & Vigna),
// seeded through splitmix64, with jump() support for cheap independent
// parallel streams.

#include <array>
#include <cstdint>
#include <limits>

namespace reldiv::stats {

/// splitmix64 step: used for seeding and for deriving stream seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ engine.  Satisfies std::uniform_random_bit_generator, so it
/// can drive <random> distributions as well as the samplers in this library.
class rng {
 public:
  using result_type = std::uint64_t;
  /// The four xoshiro256++ state words, in engine order.
  using state_type = std::array<std::uint64_t, 4>;

  explicit constexpr rng(std::uint64_t seed = 0x9d1fb7e0c2a5d3b1ULL) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  /// State export/import: an engine rebuilt by from_state(state()) continues
  /// the stream exactly where this one stands.  This is how a stream is
  /// handed to a kernel that advances several engines in lockstep and back.
  [[nodiscard]] constexpr state_type state() const noexcept { return state_; }
  [[nodiscard]] static constexpr rng from_state(const state_type& s) noexcept {
    rng r;
    r.state_ = s;
    return r;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with success probability p (p outside [0,1] is clamped
  /// by the comparison itself: p<=0 never fires, p>=1 always fires).
  [[nodiscard]] constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Uniform integer in [0, n).  n must be > 0.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation (biased rejection loop).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Advance 2^128 steps: partitions the period into non-overlapping streams.
  constexpr void jump() noexcept {
    constexpr std::array<std::uint64_t, 4> kJump = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
    for (const std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if (word & (1ULL << bit)) {
          for (int i = 0; i < 4; ++i) acc[i] ^= state_[i];
        }
        (*this)();
      }
    }
    state_ = acc;
  }

  /// Derive the i-th independent stream of a master seed (jump-based).
  [[nodiscard]] static constexpr rng stream(std::uint64_t master_seed, unsigned index) noexcept {
    rng r(master_seed);
    for (unsigned i = 0; i < index; ++i) r.jump();
    return r;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  state_type state_{};
};

/// Standard normal deviate (Marsaglia polar method would cache; we use the
/// branch-free inverse-CDF approach in distributions.hpp for quality, and
/// keep this Box-Muller-free ratio method local for hot sampling loops).
[[nodiscard]] double normal_deviate(rng& r) noexcept;

/// Gamma(shape, 1) deviate via Marsaglia–Tsang; shape > 0.
[[nodiscard]] double gamma_deviate(rng& r, double shape);

/// Beta(a, b) deviate; a, b > 0.
[[nodiscard]] double beta_deviate(rng& r, double a, double b);

/// Binomial(trials, p) deviate.  Beta-splitting recursion (the median order
/// statistic of `trials` uniforms is Beta-distributed, so one beta draw
/// halves the problem): O(log trials) beta draws instead of `trials`
/// Bernoulli draws, which makes million-demand testing campaigns cheap.
/// p outside [0,1] is clamped.
[[nodiscard]] std::uint64_t binomial_deviate(rng& r, std::uint64_t trials, double p);

}  // namespace reldiv::stats
