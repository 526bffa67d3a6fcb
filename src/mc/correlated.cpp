#include "mc/correlated.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/distributions.hpp"

namespace reldiv::mc {

common_cause_mixture::common_cause_mixture(const core::fault_universe& u, double rho,
                                           double stress)
    : u_(&u), rho_(rho) {
  if (!(rho >= 0.0) || !(rho < 1.0)) {
    throw std::invalid_argument("common_cause_mixture: rho must be in [0,1)");
  }
  if (!(stress >= 1.0)) {
    throw std::invalid_argument("common_cause_mixture: stress must be >= 1");
  }
  marginal_.reserve(u.size());
  stressed_p_.reserve(u.size());
  relaxed_p_.reserve(u.size());
  for (const auto& a : u) {
    const double hi = std::min(1.0, stress * a.p);
    // Solve rho*hi + (1-rho)*lo = p for the relaxed probability lo.
    const double lo = rho > 0.0 ? (a.p - rho * hi) / (1.0 - rho) : a.p;
    if (lo < -1e-12) {
      throw std::invalid_argument(
          "common_cause_mixture: marginal preservation infeasible (rho*stress too large)");
    }
    // The marginal the construction preserves is a.p itself; recomputing it
    // from the clamped relaxed probability would drift near the feasibility
    // boundary (where lo rounds to a hair below 0 and is clamped away).
    marginal_.push_back(a.p);
    stressed_p_.push_back(hi);
    relaxed_p_.push_back(std::max(0.0, lo));
  }
  std::vector<std::uint64_t> stressed_thresh;
  std::vector<std::uint64_t> relaxed_thresh;
  stressed_thresh.reserve(stressed_p_.size());
  relaxed_thresh.reserve(relaxed_p_.size());
  for (const double p : stressed_p_) stressed_thresh.push_back(core::bernoulli_threshold(p));
  for (const double p : relaxed_p_) relaxed_thresh.push_back(core::bernoulli_threshold(p));
  thresholds_ = core::make_mixture_lane_tables(core::bernoulli_threshold(rho),
                                               std::move(stressed_thresh),
                                               std::move(relaxed_thresh));
}

void common_cause_mixture::sample_mask(stats::rng& r, core::fault_mask& out) const {
  const bool stressed = r.bernoulli(rho_);
  sample_mask_from_thresholds(stressed ? thresholds_.stressed : thresholds_.relaxed, r, out);
}

double common_cause_mixture::marginal(std::size_t i) const {
  if (i >= marginal_.size()) throw std::out_of_range("common_cause_mixture::marginal");
  return marginal_[i];
}

double common_cause_mixture::indicator_correlation(std::size_t i, std::size_t j) const {
  if (i >= stressed_p_.size() || j >= stressed_p_.size() || i == j) {
    throw std::invalid_argument("indicator_correlation: need distinct valid indices");
  }
  const double pi = marginal(i);
  const double pj = marginal(j);
  // E[Xi Xj] = rho*hi_i*hi_j + (1-rho)*lo_i*lo_j (conditional independence).
  const double exy =
      rho_ * stressed_p_[i] * stressed_p_[j] + (1.0 - rho_) * relaxed_p_[i] * relaxed_p_[j];
  const double cov = exy - pi * pj;
  const double denom = std::sqrt(pi * (1.0 - pi) * pj * (1.0 - pj));
  return denom > 0.0 ? cov / denom : 0.0;
}

gaussian_copula_sampler::gaussian_copula_sampler(const core::fault_universe& u, double rho)
    : u_(&u), rho_(rho) {
  if (!(rho > -1.0) || !(rho < 1.0)) {
    throw std::invalid_argument("gaussian_copula_sampler: rho must be in (-1,1)");
  }
  thresholds_.reserve(u.size());
  for (const auto& a : u) {
    if (a.p <= 0.0) {
      thresholds_.push_back(-1e30);  // never present
    } else if (a.p >= 1.0) {
      thresholds_.push_back(1e30);  // always present
    } else {
      thresholds_.push_back(stats::normal_quantile(a.p));
    }
  }
}

void gaussian_copula_sampler::sample_mask(stats::rng& r, core::fault_mask& out) const {
  const std::size_t n = thresholds_.size();
  if (out.bit_size() != n) out.resize(n);
  out.clear();
  const double shared = stats::normal_deviate(r);
  const double abs_rho = std::fabs(rho_);
  const double w_shared = std::sqrt(abs_rho);
  const double w_own = std::sqrt(1.0 - abs_rho);
  for (std::size_t i = 0; i < n; ++i) {
    // Negative rho: alternate the shared factor's sign across faults, which
    // yields negative association between odd/even fault pairs while
    // preserving the standard-normal latent marginal.
    const double sign = (rho_ < 0.0 && (i % 2 == 1)) ? -1.0 : 1.0;
    const double z = sign * w_shared * shared + w_own * stats::normal_deviate(r);
    if (z < thresholds_[i]) out.set(i);
  }
}

core::fault_universe merge_fault_groups(const core::fault_universe& u,
                                        const std::vector<std::vector<std::size_t>>& groups) {
  std::vector<bool> used(u.size(), false);
  std::vector<core::fault_atom> atoms;
  for (const auto& g : groups) {
    if (g.empty()) throw std::invalid_argument("merge_fault_groups: empty group");
    core::fault_atom merged{0.0, 0.0};
    for (const std::size_t i : g) {
      if (i >= u.size()) throw std::out_of_range("merge_fault_groups: index");
      if (used[i]) throw std::invalid_argument("merge_fault_groups: overlapping groups");
      used[i] = true;
      merged.p = std::max(merged.p, u[i].p);  // perfectly-correlated limit
      merged.q += u[i].q;                     // union of disjoint regions
    }
    if (merged.q > 1.0) {
      throw std::invalid_argument(
          "merge_fault_groups: group q sum exceeds 1 (failure regions cannot be "
          "disjoint probabilities)");
    }
    atoms.push_back(merged);
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (!used[i]) atoms.push_back(u[i]);
  }
  return core::fault_universe(std::move(atoms));
}

}  // namespace reldiv::mc
