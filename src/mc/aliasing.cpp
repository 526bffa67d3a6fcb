#include "mc/aliasing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/special_functions.hpp"

namespace reldiv::mc {

double aliased_region::region_presence_probability() const {
  return stats::one_minus_prod_one_minus(mistake_probs.begin(), mistake_probs.end());
}

aliased_model::aliased_model(std::vector<aliased_region> regions)
    : regions_(std::move(regions)) {
  double q_sum = 0.0;
  for (const auto& reg : regions_) {
    if (reg.mistake_probs.empty()) {
      throw std::invalid_argument("aliased_model: region with no mistakes");
    }
    for (const double p : reg.mistake_probs) {
      if (!(p >= 0.0) || !(p <= 1.0)) {
        throw std::invalid_argument("aliased_model: mistake prob out of [0,1]");
      }
    }
    if (!(reg.q >= 0.0) || !(reg.q <= 1.0)) {
      throw std::invalid_argument("aliased_model: q out of [0,1]");
    }
    q_sum += reg.q;
  }
  if (q_sum > 1.0 + 1e-9) {
    throw std::invalid_argument("aliased_model: sum of q exceeds 1");
  }
}

core::fault_universe aliased_model::effective_universe() const {
  std::vector<core::fault_atom> atoms;
  atoms.reserve(regions_.size());
  for (const auto& reg : regions_) {
    atoms.push_back({reg.region_presence_probability(), reg.q});
  }
  return core::fault_universe(std::move(atoms));
}

core::fault_universe aliased_model::naive_mistake_universe() const {
  std::vector<core::fault_atom> atoms;
  for (const auto& reg : regions_) {
    for (const double p : reg.mistake_probs) {
      atoms.push_back({p, reg.q});
    }
  }
  // Regions are shared between mistakes, so Σq over mistake-level atoms can
  // exceed 1: that multiple counting is exactly the naive assessor's error.
  return core::fault_universe(std::move(atoms), /*allow_q_overflow=*/true);
}

double aliased_model::naive_p_max() const {
  double m = 0.0;
  for (const auto& reg : regions_) {
    for (const double p : reg.mistake_probs) m = std::max(m, p);
  }
  return m;
}

double aliased_model::true_p_max() const {
  double m = 0.0;
  for (const auto& reg : regions_) m = std::max(m, reg.region_presence_probability());
  return m;
}

void aliased_model::sample_mask(stats::rng& r, core::fault_mask& out) const {
  if (out.bit_size() != regions_.size()) out.resize(regions_.size());
  out.clear();
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    for (const double p : regions_[i].mistake_probs) {
      if (r.bernoulli(p)) {
        out.set(i);
        break;  // region already present; further mistakes change nothing
      }
    }
  }
}

aliased_model split_into_mistakes(const core::fault_universe& u,
                                  std::size_t mistakes_per_region) {
  if (mistakes_per_region == 0) {
    throw std::invalid_argument("split_into_mistakes: need >= 1 mistake per region");
  }
  std::vector<aliased_region> regions;
  regions.reserve(u.size());
  for (const auto& a : u) {
    // Solve 1 - (1 - m)^k = p for the per-mistake probability m.
    const double m =
        -std::expm1(std::log1p(-a.p) / static_cast<double>(mistakes_per_region));
    aliased_region reg;
    reg.mistake_probs.assign(mistakes_per_region, m);
    reg.q = a.q;
    regions.push_back(std::move(reg));
  }
  return aliased_model(std::move(regions));
}

}  // namespace reldiv::mc
