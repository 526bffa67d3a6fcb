#pragma once
// Packed-bitmask representation of a fault set: bit i set <=> fault i present
// in the version.  One cache line covers 512 faults, so the §2.2 sampling /
// intersection algebra (which the Monte-Carlo engine executes hundreds of
// millions of times) runs word-parallel: AND for the 1-out-of-2 common-fault
// set, popcount for N, and a masked gather-sum against the universe's
// contiguous q array for the PFD.
//
// Invariant: bits at positions >= bit_size() in the last word are zero.  All
// mutating entry points preserve it; kernels rely on it.

#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace reldiv::core {

/// Number of uniform bits behind stats::rng::uniform(): uniform() < p compares
/// a 53-bit integer draw (r() >> 11) scaled by 2^-53 against p.
inline constexpr int kBernoulliBits = 53;

/// Integer threshold t such that, for k = (r() >> 11):  k < t  <=>
/// uniform() < p, decision-for-decision.  (k < p*2^53 in exact arithmetic;
/// p*2^53 is computed exactly because scaling by a power of two is lossless,
/// and ceil() makes the comparison correct whether or not p*2^53 is integral.)
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;  // negative zero and NaN: never fires, like bernoulli()
  if (p >= 1.0) return std::uint64_t{1} << kBernoulliBits;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// 32-bit variant for the halved-draw counter words: k32 < t <=> presence,
/// where k32 is a 32-bit slice of one rng word.  Rounds p to the 2^-32 grid
/// (bias < 2.4e-10, far below Monte-Carlo noise at any feasible sample size).
[[nodiscard]] inline std::uint64_t bernoulli_threshold32(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 32;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p32));
}

class fault_mask {
 public:
  fault_mask() = default;
  explicit fault_mask(std::size_t bits) { resize(bits); }

  /// Resize to `bits` capacity and clear all bits.
  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign(words_needed(bits), 0);
  }

  [[nodiscard]] std::size_t bit_size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  void set(std::size_t i) noexcept {
    assert(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void reset(std::size_t i) noexcept {
    assert(i < bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    assert(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  [[nodiscard]] std::uint64_t* words() noexcept { return words_.data(); }
  [[nodiscard]] const std::uint64_t* words() const noexcept { return words_.data(); }
  [[nodiscard]] std::span<const std::uint64_t> word_span() const noexcept { return words_; }

  /// Mask for the last word's valid bits; applied by samplers that fill whole
  /// words to maintain the tail-bits-zero invariant.
  [[nodiscard]] std::uint64_t tail_mask() const noexcept {
    const std::size_t rem = bits_ & 63;
    return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
  }

  [[nodiscard]] std::size_t popcount() const noexcept {
    std::size_t n = 0;
    for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  [[nodiscard]] bool any() const noexcept {
    std::uint64_t acc = 0;
    for (const auto w : words_) acc |= w;
    return acc != 0;
  }

  [[nodiscard]] bool none() const noexcept { return !any(); }

  /// this = a & b.  All three masks must share bit_size.
  void intersect(const fault_mask& a, const fault_mask& b) noexcept {
    assert(a.bits_ == bits_ && b.bits_ == bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] = a.words_[w] & b.words_[w];
    }
  }

  fault_mask& operator&=(const fault_mask& o) noexcept {
    assert(o.bits_ == bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
    return *this;
  }

  /// Ascending indices of set bits (the sparse index-list form of the set).
  [[nodiscard]] std::vector<std::uint32_t> to_indices() const {
    std::vector<std::uint32_t> out;
    out.reserve(popcount());
    for (std::size_t b = 0; b < words_.size(); ++b) {
      std::uint64_t w = words_[b];
      while (w != 0) {
        out.push_back(static_cast<std::uint32_t>((b << 6) +
                                                 std::countr_zero(w)));
        w &= w - 1;
      }
    }
    return out;
  }

  [[nodiscard]] static fault_mask from_indices(std::span<const std::uint32_t> indices,
                                               std::size_t bits) {
    fault_mask m(bits);
    for (const auto i : indices) m.set(i);
    return m;
  }

  friend bool operator==(const fault_mask&, const fault_mask&) = default;

  [[nodiscard]] static std::size_t words_needed(std::size_t bits) noexcept {
    return (bits + 63) >> 6;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Σ q[i] over set bits, accumulated in ascending index order (bitwise
/// identical to the sparse loop over sorted fault indices).
[[nodiscard]] inline double masked_q_sum(const fault_mask& m,
                                         std::span<const double> q) noexcept {
  assert(q.size() >= m.bit_size());
  double pfd = 0.0;
  const std::uint64_t* words = m.words();
  for (std::size_t b = 0; b < m.word_count(); ++b) {
    std::uint64_t w = words[b];
    while (w != 0) {
      pfd += q[(b << 6) + static_cast<std::size_t>(std::countr_zero(w))];
      w &= w - 1;
    }
  }
  return pfd;
}

/// |a ∩ b|: word-parallel popcount of the intersection, no scratch mask.
[[nodiscard]] inline std::size_t intersection_popcount(const fault_mask& a,
                                                       const fault_mask& b) noexcept {
  assert(a.bit_size() == b.bit_size());
  std::size_t n = 0;
  const std::uint64_t* wa = a.words();
  const std::uint64_t* wb = b.words();
  for (std::size_t blk = 0; blk < a.word_count(); ++blk) {
    n += static_cast<std::size_t>(std::popcount(wa[blk] & wb[blk]));
  }
  return n;
}

struct pair_intersection_result {
  double pfd = 0.0;     ///< Σ q over faults common to both versions
  bool any_common = false;  ///< intersection non-empty (N2 > 0)
};

/// Fused intersection + masked q-sum + emptiness test: one pass over the
/// words, no scratch mask, same accumulation order as the sparse merge.
[[nodiscard]] inline pair_intersection_result intersect_q_sum(
    const fault_mask& a, const fault_mask& b, std::span<const double> q) noexcept {
  assert(a.bit_size() == b.bit_size() && q.size() >= a.bit_size());
  pair_intersection_result out;
  const std::uint64_t* wa = a.words();
  const std::uint64_t* wb = b.words();
  std::uint64_t seen = 0;
  for (std::size_t blk = 0; blk < a.word_count(); ++blk) {
    std::uint64_t w = wa[blk] & wb[blk];
    seen |= w;
    while (w != 0) {
      out.pfd += q[(blk << 6) + static_cast<std::size_t>(std::countr_zero(w))];
      w &= w - 1;
    }
  }
  out.any_common = seen != 0;
  return out;
}

}  // namespace reldiv::core
