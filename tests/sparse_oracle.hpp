#pragma once
// The sparse fault-set representation the library sampled with before its
// packed fault_mask engine: a version is the sorted list of the fault
// indices it holds, drawn with r.bernoulli(p_i) one fault at a time, and
// every PFD is a sum over that list.  The library no longer uses it; it is
// kept here, header-only, as the independent reference the mask engine is
// pinned against (tests/mc_mask_equivalence_test.cpp: same seed, same fault
// sets, bit-identical θ sums and the `exact` engine's whole accumulator
// state) and as the baseline of bench_p1's mask-vs-sparse rows.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/fault_universe.hpp"
#include "stats/random.hpp"

namespace reldiv::sparse {

/// A developed version: indices of the faults it contains (sorted).
struct version {
  std::vector<std::uint32_t> faults;

  [[nodiscard]] bool has_fault() const noexcept { return !faults.empty(); }
  [[nodiscard]] std::size_t fault_count() const noexcept { return faults.size(); }
};

/// Draw one version: fault i included independently with probability p_i.
[[nodiscard]] inline version sample_version(const core::fault_universe& u, stats::rng& r) {
  version v;
  for (std::uint32_t i = 0; i < u.size(); ++i) {
    if (r.bernoulli(u[i].p)) v.faults.push_back(i);
  }
  return v;
}

/// PFD of a version under the disjoint-region model: Σ q_i over present faults.
[[nodiscard]] inline double pfd_of(const version& v, const core::fault_universe& u) {
  double pfd = 0.0;
  for (const std::uint32_t i : v.faults) {
    if (i >= u.size()) throw std::out_of_range("pfd_of: fault index outside universe");
    pfd += u[i].q;
  }
  return pfd;
}

/// Faults common to two versions (sorted intersection).
[[nodiscard]] inline std::vector<std::uint32_t> common_faults(const version& a,
                                                              const version& b) {
  std::vector<std::uint32_t> out;
  std::set_intersection(a.faults.begin(), a.faults.end(), b.faults.begin(), b.faults.end(),
                        std::back_inserter(out));
  return out;
}

/// PFD of the 1-out-of-2 system built from versions a and b: Σ q_i over
/// faults present in *both* (the system fails only where both channels fail).
[[nodiscard]] inline double pair_pfd(const version& a, const version& b,
                                     const core::fault_universe& u) {
  double pfd = 0.0;
  auto ia = a.faults.begin();
  auto ib = b.faults.begin();
  while (ia != a.faults.end() && ib != b.faults.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      if (*ia >= u.size()) throw std::out_of_range("pair_pfd: fault index outside universe");
      pfd += u[*ia].q;
      ++ia;
      ++ib;
    }
  }
  return pfd;
}

/// PFD of a 1-out-of-m system: Σ q_i over faults present in *all* versions.
[[nodiscard]] inline double tuple_pfd(const std::vector<version>& versions,
                                      const core::fault_universe& u) {
  if (versions.empty()) throw std::invalid_argument("tuple_pfd: empty tuple");
  std::vector<std::uint32_t> common = versions.front().faults;
  for (std::size_t k = 1; k < versions.size() && !common.empty(); ++k) {
    std::vector<std::uint32_t> next;
    std::set_intersection(common.begin(), common.end(), versions[k].faults.begin(),
                          versions[k].faults.end(), std::back_inserter(next));
    common = std::move(next);
  }
  double pfd = 0.0;
  for (const std::uint32_t i : common) {
    if (i >= u.size()) throw std::out_of_range("tuple_pfd: fault index outside universe");
    pfd += u[i].q;
  }
  return pfd;
}

/// Adapters between the sparse and packed representations.
[[nodiscard]] inline version to_version(const core::fault_mask& m) {
  return version{m.to_indices()};
}
[[nodiscard]] inline core::fault_mask to_mask(const version& v, std::size_t universe_size) {
  return core::fault_mask::from_indices(v.faults, universe_size);
}

}  // namespace reldiv::sparse
