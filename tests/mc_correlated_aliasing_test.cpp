// Section 6 sensitivity machinery: correlated fault introduction (§6.1) and
// many-to-one fault/region aliasing (§6.3).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/fault_mask.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/no_common_fault.hpp"
#include "mc/aliasing.hpp"
#include "mc/correlated.hpp"
#include "stats/distributions.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::mc;

core::fault_universe small_universe() {
  return core::fault_universe({{0.2, 0.1}, {0.3, 0.2}, {0.1, 0.05}});
}

TEST(CommonCauseMixture, PreservesMarginalsExactly) {
  const auto u = small_universe();
  common_cause_mixture mix(u, 0.3, 2.0);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(mix.marginal(i), u[i].p, 1e-12) << "i=" << i;
  }
}

TEST(CommonCauseMixture, EmpiricalMarginalsMatch) {
  const auto u = small_universe();
  common_cause_mixture mix(u, 0.25, 2.5);
  stats::rng r(1);
  std::vector<int> counts(u.size(), 0);
  const int n = 100000;
  core::fault_mask v;
  for (int s = 0; s < n; ++s) {
    mix.sample_mask(r, v);
    for (const auto i : v.to_indices()) ++counts[i];
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), u[i].p, 0.01) << "i=" << i;
  }
}

TEST(CommonCauseMixture, InducesPositiveCorrelation) {
  const auto u = small_universe();
  common_cause_mixture mix(u, 0.3, 2.0);
  EXPECT_GT(mix.indicator_correlation(0, 1), 0.0);
  EXPECT_GT(mix.indicator_correlation(1, 2), 0.0);
  // rho = 0 degenerates to independence.
  common_cause_mixture indep(u, 0.0, 2.0);
  EXPECT_NEAR(indep.indicator_correlation(0, 1), 0.0, 1e-12);
}

TEST(CommonCauseMixture, MarginalIsPreservedExactlyAtTheFeasibilityBoundary) {
  // marginal() must return the preserved marginal itself, not recompute it
  // from the clamped relaxed probability: near the feasibility boundary the
  // relaxed p rounds to a hair below zero and is clamped away, and away from
  // it the deflate-then-recombine arithmetic rounds off the last ulp.
  // Saturated regime: stress*p > 1 clamps the stressed p to 1.
  const core::fault_universe saturated({{0.5, 0.1}, {0.35, 0.2}, {0.9, 0.05}});
  const common_cause_mixture sat(saturated, 0.3, 1e6);
  for (std::size_t i = 0; i < saturated.size(); ++i) {
    EXPECT_EQ(sat.marginal(i), saturated[i].p) << "i=" << i;
  }
  // Boundary regime: rho*stress == 1 up to rounding, so the relaxed p is a
  // rounding-error-sized number that the constructor clamps to [0, p].
  const core::fault_universe boundary({{0.1, 0.1}, {0.07, 0.2}, {0.013, 0.05}});
  const double rho = 0.3;
  const common_cause_mixture mix(boundary, rho, 1.0 / rho);
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    EXPECT_EQ(mix.marginal(i), boundary[i].p) << "i=" << i;
  }
  // Generic (non-boundary) parameters must be exact too, not just 1e-12
  // close.
  const auto u = core::make_random_universe(40, 0.45, 0.8, 77);
  const common_cause_mixture generic(u, 0.37, 1.9);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(generic.marginal(i), u[i].p) << "i=" << i;
  }
}

TEST(CommonCauseMixture, Validation) {
  const auto u = small_universe();
  EXPECT_THROW(common_cause_mixture(u, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(common_cause_mixture(u, 0.5, 0.5), std::invalid_argument);
  // Infeasible marginal preservation: rho close to 1 with huge stress.
  EXPECT_THROW(common_cause_mixture(u, 0.9, 10.0), std::invalid_argument);
}

TEST(CommonCauseMixture, CorrelationEffectsHaveTheFkgDirection) {
  // §6.1 quantified.  With marginals preserved and the two developments
  // still independent of each other:
  //  * E[Θ1] and E[Θ2] are UNCHANGED (they depend only on marginals);
  //  * positive association within a version clusters faults, so
  //    P(N1 > 0) and P(N2 > 0) both DECREASE relative to independence
  //    (FKG: E[Π(1−X_i)] >= Π E[1−X_i] under positive association).
  const auto u = core::make_random_universe(10, 0.3, 0.5, 3);
  common_cause_mixture mix(u, 0.4, 2.0);
  const auto corr = run_correlated(u, mix, 200000, 5);
  EXPECT_NEAR(corr.mean_theta1, core::single_version_moments(u).mean, 5e-4);
  EXPECT_NEAR(corr.mean_theta2, core::pair_moments(u).mean, 5e-4);
  EXPECT_LT(corr.prob_n1_positive, core::prob_some_fault(u) + 0.003);
  EXPECT_LT(corr.prob_n2_positive, core::prob_some_common_fault(u) + 0.003);
}

TEST(GaussianCopula, MarginalsPreserved) {
  const auto u = small_universe();
  gaussian_copula_sampler cop(u, 0.5);
  stats::rng r(7);
  std::vector<int> counts(u.size(), 0);
  const int n = 100000;
  core::fault_mask v;
  for (int s = 0; s < n; ++s) {
    cop.sample_mask(r, v);
    for (const auto i : v.to_indices()) ++counts[i];
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), u[i].p, 0.012) << "i=" << i;
  }
  EXPECT_THROW(gaussian_copula_sampler(u, 1.0), std::invalid_argument);
}

TEST(GaussianCopula, DegenerateProbabilities) {
  core::fault_universe u({{0.0, 0.1}, {1.0, 0.1}});
  gaussian_copula_sampler cop(u, 0.3);
  stats::rng r(9);
  core::fault_mask v;
  for (int s = 0; s < 100; ++s) {
    cop.sample_mask(r, v);
    const auto faults = v.to_indices();
    ASSERT_EQ(faults.size(), 1u);
    ASSERT_EQ(faults[0], 1u);
  }
}

/// P(X_i = X_j = 1) under the copula's latent model Z_k = s_k·√|ρ|·Z0 +
/// √(1−|ρ|)·E_k, X_k = 1{Z_k < Φ⁻¹(p_k)}.  Given the shared factor Z0 the two
/// indicators are independent, so the joint presence is a 1-D integral over
/// Z0: the trapezoid rule on [−10, 10], exact far below Monte-Carlo noise.
double copula_joint_presence(double p_i, double s_i, double p_j, double s_j, double rho) {
  const double a = std::sqrt(std::fabs(rho));
  const double b = std::sqrt(1.0 - std::fabs(rho));
  const double t_i = stats::normal_quantile(p_i);
  const double t_j = stats::normal_quantile(p_j);
  constexpr int kSteps = 8000;
  const double h = 20.0 / kSteps;
  double sum = 0.0;
  for (int k = 0; k <= kSteps; ++k) {
    const double z = -10.0 + h * k;
    const double w = (k == 0 || k == kSteps) ? 0.5 : 1.0;
    sum += w * stats::normal_pdf(z) * stats::normal_cdf((t_i - s_i * a * z) / b) *
           stats::normal_cdf((t_j - s_j * a * z) / b);
  }
  return sum * h;
}

double phi_coefficient(double p11, double p_i, double p_j) {
  return (p11 - p_i * p_j) / std::sqrt(p_i * (1.0 - p_i) * p_j * (1.0 - p_j));
}

TEST(GaussianCopula, NegativeRhoCorrelatesFaultsWithinAVersionByParity) {
  // rho < 0 flips the shared factor's sign on odd fault indices: faults of
  // the same parity co-occur MORE often than independent faults, faults of
  // mixed parity LESS often.  A within-version structure, not a coupling of
  // two channels.
  const double rho = -0.5;
  const core::fault_universe u({{0.3, 0.1}, {0.25, 0.1}, {0.2, 0.1}, {0.35, 0.1}});
  const gaussian_copula_sampler cop(u, rho);
  stats::rng r(2026);
  core::fault_mask m(u.size());
  constexpr int kSamples = 400'000;
  int same = 0;   // faults 0 and 2: the shared factor enters both with sign +1
  int mixed = 0;  // faults 0 and 1: fault 1's shared factor is flipped
  for (int s = 0; s < kSamples; ++s) {
    cop.sample_mask(r, m);
    same += (m.test(0) && m.test(2)) ? 1 : 0;
    mixed += (m.test(0) && m.test(1)) ? 1 : 0;
  }
  const double n = kSamples;
  const double same_ref = copula_joint_presence(0.3, +1.0, 0.2, +1.0, rho);
  const double mixed_ref = copula_joint_presence(0.3, +1.0, 0.25, -1.0, rho);
  const auto five_sigma = [n](double p) { return 5.0 * std::sqrt(p * (1.0 - p) / n); };
  EXPECT_NEAR(same / n, same_ref, five_sigma(same_ref));
  EXPECT_NEAR(mixed / n, mixed_ref, five_sigma(mixed_ref));

  EXPECT_GT(phi_coefficient(same_ref, 0.3, 0.2), 0.0);
  EXPECT_GT(phi_coefficient(same / n, 0.3, 0.2), 0.0);
  EXPECT_LT(phi_coefficient(mixed_ref, 0.3, 0.25), 0.0);
  EXPECT_LT(phi_coefficient(mixed / n, 0.3, 0.25), 0.0);
}

TEST(MergeFaultGroups, PerfectlyCorrelatedLimit) {
  // §6.1: "two mistakes that can only occur together ... can be considered
  // as one mistake, with a failure region which is the union".
  core::fault_universe u({{0.2, 0.1}, {0.2, 0.15}, {0.05, 0.2}});
  const auto merged = merge_fault_groups(u, {{0, 1}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].p, 0.2);            // group max
  EXPECT_NEAR(merged[0].q, 0.25, 1e-15);         // union of disjoint regions
  EXPECT_DOUBLE_EQ(merged[1].p, 0.05);           // untouched fault kept
  EXPECT_THROW((void)merge_fault_groups(u, {{0}, {0}}), std::invalid_argument);
  EXPECT_THROW((void)merge_fault_groups(u, {{7}}), std::out_of_range);
}

TEST(MergeFaultGroups, RejectsGroupWhoseRegionUnionExceedsProbabilityOne) {
  // q's are probabilities of disjoint regions; a merged super-fault whose
  // summed q passes 1 is not a probability and must be rejected up front
  // (with a message naming the group sum, not a generic universe error).
  core::fault_universe u({{0.2, 0.6}, {0.2, 0.6}, {0.05, 0.2}},
                         /*allow_q_overflow=*/true);
  try {
    (void)merge_fault_groups(u, {{0, 1}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The merge itself must diagnose the group, not defer to a downstream
    // universe-construction error.
    EXPECT_NE(std::string(e.what()).find("merge_fault_groups"), std::string::npos)
        << e.what();
  }
  // A group summing to exactly 1 is still a valid probability.
  core::fault_universe ok({{0.2, 0.5}, {0.2, 0.5}}, /*allow_q_overflow=*/true);
  const auto merged = merge_fault_groups(ok, {{0, 1}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].q, 1.0);
}

TEST(Aliasing, SplitPreservesRegionPresence) {
  const auto u = small_universe();
  for (const std::size_t k : {1u, 2u, 5u}) {
    const auto model = split_into_mistakes(u, k);
    const auto eff = model.effective_universe();
    ASSERT_EQ(eff.size(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      EXPECT_NEAR(eff[i].p, u[i].p, 1e-12) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ(eff[i].q, u[i].q);
    }
  }
  EXPECT_THROW((void)split_into_mistakes(u, 0), std::invalid_argument);
}

TEST(Aliasing, NaiveAssessorUnderestimatesPmax) {
  // The §6.3 warning: per-mistake probabilities understate the region
  // presence probability, increasingly so with more aliased mistakes.
  const auto u = small_universe();
  double prev_naive = 1.0;
  for (const std::size_t k : {2u, 4u, 8u}) {
    const auto model = split_into_mistakes(u, k);
    EXPECT_NEAR(model.true_p_max(), u.p_max(), 1e-12);
    EXPECT_LT(model.naive_p_max(), model.true_p_max()) << "k=" << k;
    EXPECT_LT(model.naive_p_max(), prev_naive) << "k=" << k;
    prev_naive = model.naive_p_max();
  }
}

TEST(Aliasing, SampleMarginalsMatchEffectiveUniverse) {
  const auto u = small_universe();
  const auto model = split_into_mistakes(u, 3);
  stats::rng r(11);
  std::vector<int> counts(u.size(), 0);
  const int n = 100000;
  core::fault_mask v;
  for (int s = 0; s < n; ++s) {
    model.sample_mask(r, v);
    for (const auto i : v.to_indices()) ++counts[i];
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), u[i].p, 0.01) << "i=" << i;
  }
}

TEST(Aliasing, Validation) {
  EXPECT_THROW(aliased_model({aliased_region{{}, 0.1}}), std::invalid_argument);
  EXPECT_THROW(aliased_model({aliased_region{{1.5}, 0.1}}), std::invalid_argument);
  EXPECT_THROW(aliased_model({aliased_region{{0.5}, 1.5}}), std::invalid_argument);
}

}  // namespace
