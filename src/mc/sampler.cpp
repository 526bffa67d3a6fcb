#include "mc/sampler.hpp"

#include <algorithm>
#include <stdexcept>

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
