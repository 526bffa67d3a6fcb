// E15 — the paper's §7 qualitative validation against the Knight-Leveson
// experiment: 27 versions; "diversity reduced not only the sample mean of
// the PFD of the 27 program versions produced, but also – greatly – its
// standard deviation"; and "the data do not fit ... a normal approximation".
// The original data set is not public; this is the calibrated synthetic
// replica described in DESIGN.md.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "kl/experiment.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E15", "synthetic Knight-Leveson replication (27 versions, 351 pairs)");

  const auto u = core::make_knight_leveson_like_universe(1);
  std::printf("  calibrated universe: %s\n", u.describe().c_str());

  kl::kl_config cfg;  // 27 versions, 1M demands, fixed seed
  const auto res = kl::run_kl_experiment(u, cfg);

  benchutil::section("sample statistics (exact per-version PFDs)");
  benchutil::table t({"population", "n", "mean PFD", "std dev", "median", "max"});
  t.row({"single versions", std::to_string(res.version_summary.n),
         benchutil::sci(res.version_summary.mean), benchutil::sci(res.version_summary.stddev),
         benchutil::sci(res.version_summary.median), benchutil::sci(res.version_summary.max)});
  t.row({"1-out-of-2 pairs", std::to_string(res.pair_summary.n),
         benchutil::sci(res.pair_summary.mean), benchutil::sci(res.pair_summary.stddev),
         benchutil::sci(res.pair_summary.median), benchutil::sci(res.pair_summary.max)});
  t.print();

  std::printf("  mean reduction factor:    %.1fx\n", res.mean_reduction);
  std::printf("  std-dev reduction factor: %.1fx\n", res.sd_reduction);
  benchutil::verdict(res.mean_reduction > 1.0,
                     "diversity reduced the sample mean of the PFD (paper's observation 1)");
  benchutil::verdict(res.sd_reduction > 1.5,
                     "and greatly reduced the standard deviation — the paper's "
                     "observation 2, which its eq. (9) predicts (the paper claims a large "
                     "reduction, not one larger than the mean's)");

  benchutil::section("population-level cross-check against the model");
  const auto m1 = core::single_version_moments(u);
  const auto m2 = core::pair_moments(u);
  std::printf("  model E[Theta1] = %s, sample mean = %s\n", benchutil::sci(m1.mean).c_str(),
              benchutil::sci(res.version_summary.mean).c_str());
  std::printf("  model E[Theta2] = %s, pair sample mean = %s\n",
              benchutil::sci(m2.mean).c_str(), benchutil::sci(res.pair_summary.mean).c_str());
  benchutil::note("(27 versions is a small sample; agreement is order-of-magnitude, which");
  benchutil::note("is the same epistemic situation the paper faced with the real data.)");

  benchutil::section("normality of the 27 version PFDs (Anderson-Darling)");
  std::printf("  A*^2 = %.3f, p-value = %.4f -> %s normality at 5%%\n",
              res.version_normality.statistic, res.version_normality.p_value,
              res.version_normality.reject_at_05 ? "REJECT" : "do not reject");
  benchutil::verdict(res.version_normality.reject_at_05,
                     "'the data do not fit ... a normal approximation for the distribution "
                     "of PFD' — reproduced: few discrete faults make the law lumpy");

  benchutil::section("empirical (1M-demand campaign) vs exact scoring");
  double worst_abs = 0.0;
  for (std::size_t v = 0; v < res.version_pfd.size(); ++v) {
    worst_abs = std::max(worst_abs, std::abs(res.version_pfd_hat[v] - res.version_pfd[v]));
  }
  std::printf("  worst |empirical - exact| over 27 versions: %s\n",
              benchutil::sci(worst_abs).c_str());
  benchutil::verdict(worst_abs < 5e-4, "testing-campaign estimates track the exact PFDs");
  return benchutil::exit_status();
}
