// Monte-Carlo engine: sampler marginals, pair/tuple PFD algebra on fault
// masks, and agreement of the multithreaded experiment runner with the
// closed forms of Sections 3 and 4.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/no_common_fault.hpp"
#include "mc/experiment.hpp"
#include "mc/sampler.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::mc;

/// The fault set {indices} over a universe of n faults.
core::fault_mask mask_of(const std::vector<std::uint32_t>& indices, std::size_t n) {
  return core::fault_mask::from_indices(indices, n);
}

TEST(Sampler, MarginalPresenceFrequencies) {
  core::fault_universe u({{0.3, 0.1}, {0.05, 0.1}, {0.8, 0.1}});
  stats::rng r(1);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  core::fault_mask v;
  for (int s = 0; s < n; ++s) {
    sample_version_mask(u, r, v);
    for (const auto i : v.to_indices()) ++counts[i];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.05, 0.005);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.8, 0.01);
}

TEST(Sampler, PfdAndCommonFaultAlgebra) {
  core::fault_universe u({{0.5, 0.1}, {0.5, 0.2}, {0.5, 0.3}});
  const auto a = mask_of({0, 2}, 3);
  const auto b = mask_of({1, 2}, 3);
  EXPECT_NEAR(pfd_of(a, u), 0.4, 1e-15);
  EXPECT_NEAR(pfd_of(b, u), 0.5, 1e-15);
  core::fault_mask common(3);
  common.intersect(a, b);
  const auto common_faults = common.to_indices();
  ASSERT_EQ(common_faults.size(), 1u);
  EXPECT_EQ(common_faults[0], 2u);
  EXPECT_NEAR(pair_pfd(a, b, u), 0.3, 1e-15);
  EXPECT_TRUE(pair_pfd_stats(a, b, u).any_common);
  // Tuple of three: intersection empty -> PFD 0.
  const auto c = mask_of({0, 1}, 3);
  core::fault_mask scratch;
  EXPECT_DOUBLE_EQ(tuple_pfd(std::vector<core::fault_mask>{a, b, c}, u, scratch), 0.0);
  EXPECT_NEAR(tuple_pfd(std::vector<core::fault_mask>{a, a}, u, scratch), 0.4, 1e-15);
  EXPECT_THROW((void)tuple_pfd({}, u, scratch), std::invalid_argument);
}

TEST(Sampler, OutOfUniverseIndicesThrow) {
  // A fault set over another universe (here: holding fault 3 of a 1-fault
  // universe) is refused, not read past the universe's q array.
  core::fault_universe u({{0.5, 0.1}});
  const auto bad = mask_of({3}, 4);
  const core::fault_mask good(1);
  EXPECT_THROW((void)pfd_of(bad, u), std::invalid_argument);
  EXPECT_THROW((void)pair_pfd(bad, bad, u), std::invalid_argument);
  EXPECT_THROW((void)pair_pfd(good, bad, u), std::invalid_argument);
  core::fault_mask scratch;
  EXPECT_THROW((void)tuple_pfd(std::vector<core::fault_mask>{good, bad}, u, scratch),
               std::invalid_argument);
}

TEST(Experiment, EstimatesMatchClosedFormsWithinCi) {
  const auto u = core::make_random_universe(20, 0.4, 0.8, 17);
  experiment_config cfg;
  cfg.samples = 200000;
  cfg.seed = 5;
  const auto res = run_experiment(u, cfg);

  const auto m1 = core::single_version_moments(u);
  const auto m2 = core::pair_moments(u);
  EXPECT_TRUE(res.mean_theta1().ci.contains(m1.mean))
      << res.mean_theta1().value << " vs " << m1.mean;
  EXPECT_TRUE(res.mean_theta2().ci.contains(m2.mean))
      << res.mean_theta2().value << " vs " << m2.mean;
  EXPECT_NEAR(res.stddev_theta1(), m1.stddev(), 0.02 * m1.stddev() + 1e-4);
  EXPECT_NEAR(res.stddev_theta2(), m2.stddev(), 0.03 * m2.stddev() + 1e-4);
  EXPECT_TRUE(res.prob_n1_positive().ci.contains(core::prob_some_fault(u)));
  EXPECT_TRUE(res.prob_n2_positive().ci.contains(core::prob_some_common_fault(u)));
  EXPECT_NEAR(res.risk_ratio(), core::risk_ratio(u), 0.02);
}

TEST(Experiment, SingleThreadMatchesClosedFormsToo) {
  const auto u = core::make_random_universe(10, 0.3, 0.5, 21);
  experiment_config cfg;
  cfg.samples = 50000;
  cfg.threads = 1;
  cfg.seed = 9;
  const auto res = run_experiment(u, cfg);
  EXPECT_TRUE(res.mean_theta1().ci.contains(core::single_version_moments(u).mean));
  EXPECT_EQ(res.samples, 50000u);
}

TEST(Experiment, DeterministicForFixedSeedAndThreads) {
  const auto u = core::make_random_universe(10, 0.3, 0.5, 22);
  experiment_config cfg;
  cfg.samples = 20000;
  cfg.threads = 4;
  cfg.seed = 77;
  const auto a = run_experiment(u, cfg);
  const auto b = run_experiment(u, cfg);
  EXPECT_DOUBLE_EQ(a.theta1.mean(), b.theta1.mean());
  EXPECT_EQ(a.n2_positive, b.n2_positive);
}

TEST(Experiment, KeepSamplesReturnsFullVectors) {
  const auto u = core::make_random_universe(8, 0.4, 0.5, 23);
  experiment_config cfg;
  cfg.samples = 5000;
  cfg.keep_samples = true;
  const auto res = run_experiment(u, cfg);
  ASSERT_TRUE(res.theta1_samples.has_value());
  ASSERT_TRUE(res.theta2_samples.has_value());
  EXPECT_EQ(res.theta1_samples->size(), 5000u);
  EXPECT_EQ(res.theta2_samples->size(), 5000u);
  // Sample mean must agree with the accumulator.
  double sum = 0.0;
  for (const double x : *res.theta1_samples) sum += x;
  EXPECT_NEAR(sum / 5000.0, res.theta1.mean(), 1e-12);
}

TEST(Experiment, Validation) {
  const auto u = core::make_random_universe(5, 0.4, 0.5, 2);
  experiment_config cfg;
  cfg.samples = 0;
  EXPECT_THROW((void)run_experiment(u, cfg), std::invalid_argument);
}

TEST(Experiment, ZeroPfdCountsConsistent) {
  // All q > 0, so PFD == 0 exactly when no fault (version) / no common
  // fault (pair).
  const auto u = core::make_random_universe(12, 0.5, 0.6, 31);
  experiment_config cfg;
  cfg.samples = 30000;
  const auto res = run_experiment(u, cfg);
  EXPECT_EQ(res.n1_zero_pfd, res.samples - res.n1_positive);
  EXPECT_EQ(res.n2_zero_pfd, res.samples - res.n2_positive);
}

}  // namespace
