// E1 — Equations (1)-(3): exact moments of Θ1 and Θ2 vs large-sample
// Monte-Carlo across the paper's two regimes (§4 "safety-grade" and §5
// "many small faults") plus a generic universe.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "mc/experiment.hpp"

namespace {

using namespace reldiv;

void run_case(const std::string& name, const core::fault_universe& u,
              std::uint64_t samples) {
  benchutil::section(name + "  (" + u.describe() + ")");
  const auto m1 = core::single_version_moments(u);
  const auto m2 = core::pair_moments(u);

  mc::experiment_config cfg;
  cfg.samples = samples;
  cfg.seed = 1234;
  const auto res = mc::run_experiment(u, cfg);

  benchutil::table t({"quantity", "eq.(1)/(2)", "monte-carlo", "99% CI lo", "99% CI hi"});
  const auto e_mu1 = res.mean_theta1();
  const auto e_mu2 = res.mean_theta2();
  t.row({"E[Theta1]", benchutil::sci(m1.mean), benchutil::sci(e_mu1.value),
         benchutil::sci(e_mu1.ci.lo), benchutil::sci(e_mu1.ci.hi)});
  t.row({"E[Theta2]", benchutil::sci(m2.mean), benchutil::sci(e_mu2.value),
         benchutil::sci(e_mu2.ci.lo), benchutil::sci(e_mu2.ci.hi)});
  t.row({"sigma(Theta1)", benchutil::sci(m1.stddev()), benchutil::sci(res.stddev_theta1()),
         "-", "-"});
  t.row({"sigma(Theta2)", benchutil::sci(m2.stddev()), benchutil::sci(res.stddev_theta2()),
         "-", "-"});
  t.print();

  benchutil::verdict(e_mu1.ci.contains(m1.mean) && e_mu2.ci.contains(m2.mean),
                     "Monte-Carlo means bracket the closed-form eq. (1) values");
  const double mu_product = m1.mean * m1.mean;
  benchutil::verdict(m2.mean >= mu_product,
                     "E[Theta2] >= (E[Theta1])^2 — the EL/LM coincident-failure excess "
                     "(paper: 'greater than the product of the versions' average PFDs')");
  std::printf("  independence shortfall: E[Theta2] - E[Theta1]^2 = %s (x%.2f the product)\n",
              benchutil::sci(m2.mean - mu_product).c_str(),
              mu_product > 0 ? m2.mean / mu_product : 0.0);
}

}  // namespace

int main() {
  benchutil::title("E1", "moments of the PFD of 1-version and 1-out-of-2 systems (eqs. 1-3)");
  benchutil::note("Paper: E[Theta1] = sum p_i q_i ; E[Theta2] = sum p_i^2 q_i ;");
  benchutil::note("       var(Theta1) = sum p_i(1-p_i)q_i^2 ; var(Theta2) = sum p_i^2(1-p_i^2)q_i^2");

  run_case("safety-grade regime (Section 4)",
           core::make_safety_grade_universe(40, 0.0, 0.02, 0.6, 7), 400000);
  run_case("many-small-faults regime (Section 5)",
           core::make_many_small_faults_universe(200, 0.02, 0.15, 0.8, 0.3, 8), 200000);
  run_case("generic universe", core::make_random_universe(30, 0.5, 0.7, 9), 400000);
  return benchutil::exit_status();
}
