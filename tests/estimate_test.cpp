// Parameter estimation and model validation from version samples.

#include "estimate/estimators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/no_common_fault.hpp"
#include "mc/correlated.hpp"
#include "mc/sampler.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::estimate;

TEST(FaultIncidence, BasicAccessors) {
  fault_incidence data(3, 4);
  data.set(0, 1, true);
  data.set(1, 1, true);
  data.set(1, 2, true);
  EXPECT_TRUE(data.contains(0, 1));
  EXPECT_FALSE(data.contains(0, 0));
  EXPECT_EQ(data.fault_count(1), 2u);
  EXPECT_EQ(data.fault_count(3), 0u);
  EXPECT_EQ(data.joint_count(1, 2), 1u);
  EXPECT_EQ(data.version_fault_count(1), 2u);
  EXPECT_THROW((void)data.contains(5, 0), std::out_of_range);
  EXPECT_THROW(fault_incidence(0, 4), std::invalid_argument);
}

TEST(FaultIncidence, FromMasks) {
  std::vector<core::fault_mask> vs(3, core::fault_mask(3));
  vs[0].set(0);
  vs[0].set(2);
  vs[1].set(2);
  const auto data = fault_incidence::from_masks(vs, 3);
  EXPECT_EQ(data.versions(), 3u);
  EXPECT_EQ(data.fault_count(2), 2u);
  EXPECT_EQ(data.fault_count(1), 0u);
  EXPECT_THROW((void)fault_incidence::from_masks({}, 3), std::invalid_argument);
  EXPECT_THROW((void)fault_incidence::from_masks(vs, 5), std::invalid_argument);
}

TEST(FaultIncidence, MaskBackedCountsMatchDenseReference) {
  // Equivalence pin for the bitmask migration: every count the estimators
  // read off the packed incidence matrix must equal the historical dense
  // (cell-by-cell) computation on the same sample.
  const auto u = core::make_random_universe(20, 0.5, 0.5, 77);
  stats::rng r(78);
  std::vector<core::fault_mask> sample(200);
  for (auto& v : sample) mc::sample_version_mask(u, r, v);
  const auto data = fault_incidence::from_masks(sample, u.size());

  std::vector<std::uint8_t> cells(sample.size() * u.size(), 0);
  for (std::size_t v = 0; v < sample.size(); ++v) {
    for (std::size_t f = 0; f < u.size(); ++f) {
      cells[v * u.size() + f] = sample[v].test(f) ? 1 : 0;
    }
  }
  for (std::size_t f = 0; f < u.size(); ++f) {
    std::size_t count = 0;
    for (std::size_t v = 0; v < sample.size(); ++v) count += cells[v * u.size() + f];
    EXPECT_EQ(data.fault_count(f), count) << "f=" << f;
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    for (std::size_t j = i + 1; j < u.size(); ++j) {
      std::size_t joint = 0;
      for (std::size_t v = 0; v < sample.size(); ++v) {
        joint += cells[v * u.size() + i] & cells[v * u.size() + j];
      }
      EXPECT_EQ(data.joint_count(i, j), joint) << i << "," << j;
    }
  }
  for (std::size_t v = 0; v < sample.size(); ++v) {
    std::size_t n = 0;
    for (std::size_t f = 0; f < u.size(); ++f) n += cells[v * u.size() + f];
    EXPECT_EQ(data.version_fault_count(v), n) << "v=" << v;
  }
}

TEST(EstimateP, RecoversTrueParameters) {
  const auto u = core::make_random_universe(10, 0.5, 0.5, 5);
  stats::rng r(6);
  std::vector<core::fault_mask> sample(5000);
  for (auto& v : sample) mc::sample_version_mask(u, r, v);
  const auto data = fault_incidence::from_masks(sample, u.size());
  const auto est = estimate_p(data, 0.99);
  int misses = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(est[i].p_hat, u[i].p, 0.03) << "i=" << i;
    if (!est[i].ci.contains(u[i].p)) ++misses;
  }
  EXPECT_LE(misses, 1);  // 99% intervals, 10 parameters
}

TEST(DiagnoseIndependence, AcceptsIndependentData) {
  const auto u = core::make_random_universe(8, 0.4, 0.5, 7);
  stats::rng r(8);
  std::vector<core::fault_mask> sample(3000);
  for (auto& v : sample) mc::sample_version_mask(u, r, v);
  const auto d = diagnose_independence(fault_incidence::from_masks(sample, u.size()));
  EXPECT_GT(d.pairs_tested, 0u);
  EXPECT_FALSE(d.independence_rejected);
  EXPECT_LT(d.max_abs_phi, 0.08);
}

TEST(DiagnoseIndependence, DetectsCommonCauseCorrelation) {
  // The §6.1 scenario: strongly correlated introduction must be flagged.
  const auto u = core::make_random_universe(8, 0.4, 0.5, 9);
  const mc::common_cause_mixture mix(u, 0.45, 2.0);
  stats::rng r(10);
  std::vector<core::fault_mask> sample(3000);
  for (auto& v : sample) mix.sample_mask(r, v);
  const auto d = diagnose_independence(fault_incidence::from_masks(sample, u.size()));
  EXPECT_TRUE(d.independence_rejected);
  EXPECT_GT(d.max_abs_phi, 0.05);
}

TEST(EstimatePfdMoments, CorrectsBinomialNoise) {
  // Versions with true PFDs from a known universe, scored on finite
  // campaigns: the raw sd overestimates sigma(Theta); the corrected sd
  // should land much closer.
  const auto u = core::make_random_universe(12, 0.5, 0.3, 11);
  const auto true_m = core::single_version_moments(u);
  stats::rng r(12);
  const std::uint64_t demands = 20000;
  std::vector<std::uint64_t> failures;
  core::fault_mask ver;
  for (int v = 0; v < 400; ++v) {
    mc::sample_version_mask(u, r, ver);
    const double pfd = mc::pfd_of(ver, u);
    std::uint64_t f = 0;
    for (std::uint64_t d = 0; d < demands; ++d) {
      if (r.bernoulli(pfd)) ++f;
    }
    failures.push_back(f);
  }
  const auto est = estimate_pfd_moments(failures, demands);
  EXPECT_TRUE(est.mean_ci.contains(true_m.mean));
  EXPECT_GE(est.stddev_raw, est.stddev_corrected);
  EXPECT_NEAR(est.stddev_corrected, true_m.stddev(), 0.15 * true_m.stddev());
}

TEST(EstimatePfdMoments, Validation) {
  EXPECT_THROW((void)estimate_pfd_moments({5}, 100), std::invalid_argument);
  EXPECT_THROW((void)estimate_pfd_moments({5, 6}, 0), std::invalid_argument);
  EXPECT_THROW((void)estimate_pfd_moments({200, 6}, 100), std::invalid_argument);
}

TEST(PredictPair, MatchesClosedFormsAtTrueParameters) {
  const auto u = core::make_random_universe(10, 0.4, 0.5, 13);
  std::vector<p_estimate> exact(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) exact[i].p_hat = u[i].p;
  const auto pred = predict_pair(exact, u.q_values());
  EXPECT_NEAR(pred.mean_pair_pfd, core::pair_moments(u).mean, 1e-14);
  EXPECT_NEAR(pred.prob_no_common_fault, core::prob_no_common_fault(u), 1e-12);
  EXPECT_NEAR(pred.risk_ratio, core::risk_ratio(u), 1e-12);
  EXPECT_THROW((void)predict_pair(exact, {0.1}), std::invalid_argument);
}

TEST(SplitSampleValidation, PredictionTracksHoldout) {
  // With enough versions, the training-half calibration must predict the
  // holdout pairs' mean PFD to within a factor ~2 (sampling noise of p̂²).
  const auto u = core::make_random_universe(12, 0.4, 0.5, 15);
  const auto rep = split_sample_validation(u, 400, 16);
  EXPECT_EQ(rep.training_versions, 200u);
  EXPECT_EQ(rep.holdout_pairs, 200u * 199u / 2u);
  EXPECT_GT(rep.predicted.mean_pair_pfd, 0.0);
  const double ratio = rep.observed_pair_mean / rep.predicted.mean_pair_pfd;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
  EXPECT_THROW((void)split_sample_validation(u, 3, 1), std::invalid_argument);
}

TEST(SplitSampleValidation, BitIdenticalAcrossThreadCounts) {
  // The holdout scoring now fans out over the campaign worker pool; the
  // per-block merge order is fixed, so every field must be bit-identical
  // whatever the thread count.
  const auto u = core::make_random_universe(12, 0.4, 0.5, 15);
  validation_config cfg;
  cfg.versions = 120;
  cfg.seed = 16;
  cfg.demands = 50'000;
  cfg.threads = 1;
  const auto reference = split_sample_validation(u, cfg);
  for (const unsigned threads : {2u, 7u, 0u}) {
    cfg.threads = threads;
    const auto rep = split_sample_validation(u, cfg);
    EXPECT_EQ(rep.observed_pair_mean, reference.observed_pair_mean);
    EXPECT_EQ(rep.observed_no_common_fraction, reference.observed_no_common_fraction);
    EXPECT_EQ(rep.observed_pair_mean_hat, reference.observed_pair_mean_hat);
    EXPECT_EQ(rep.predicted.mean_pair_pfd, reference.predicted.mean_pair_pfd);
  }
}

TEST(SplitSampleValidation, EmpiricalScoringTracksExactScoring) {
  const auto u = core::make_random_universe(12, 0.4, 0.5, 15);
  validation_config cfg;
  cfg.versions = 200;
  cfg.seed = 17;
  cfg.demands = 200'000;
  const auto rep = split_sample_validation(u, cfg);
  EXPECT_EQ(rep.demands, cfg.demands);
  ASSERT_GT(rep.observed_pair_mean, 0.0);
  // Campaign noise on the mean over ~5000 pairs is tiny at 2e5 demands each.
  EXPECT_NEAR(rep.observed_pair_mean_hat, rep.observed_pair_mean,
              0.05 * rep.observed_pair_mean + 1e-6);
}

}  // namespace
