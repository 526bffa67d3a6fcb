// E9 — §5's normal approximation quality: Kolmogorov distance between the
// exact PFD law and the moment-matched normal, and the coverage error of the
// µ+kσ bounds, as the number of comparable faults grows.  The paper: "As
// this is an asymptotic result, we will not know in practice how good an
// approximation it is in a specific case" — here we know exactly.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/pfd_distribution.hpp"
#include "stats/distributions.hpp"

int main() {
  using namespace reldiv;
  using namespace reldiv::core;
  benchutil::title("E9", "quality of the Section 5 normal approximation");

  benchutil::section("Kolmogorov distance vs number of faults (many-small-faults regime)");
  benchutil::table t({"n", "KS dist m=1", "KS dist m=2", "99% bound cover m=1", "cover m=2"});
  double prev1 = 1.0;
  bool shrinking = true;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const auto u = make_many_small_faults_universe(n, 0.25, 0.5, 0.9, 0.1, 91);
    const auto exact1 = n <= 22 ? exact_pfd_distribution(u, 1) : grid_pfd_distribution(u, 1, 8192);
    const auto exact2 = n <= 22 ? exact_pfd_distribution(u, 2) : grid_pfd_distribution(u, 2, 8192);
    const auto approx1 = normal_approx(u, 1);
    const auto approx2 = normal_approx(u, 2);
    const double d1 = normal_approximation_distance(exact1, approx1);
    const double d2 = normal_approximation_distance(exact2, approx2);
    // Coverage: what probability does the exact law put below µ+2.33σ?
    const double cover1 = exact1.cdf(approx1.bound(2.3263));
    const double cover2 = exact2.cdf(approx2.bound(2.3263));
    shrinking = shrinking && (n < 16 || d1 <= prev1 + 0.01);
    prev1 = d1;
    t.row({std::to_string(n), benchutil::fmt(d1, "%.4f"), benchutil::fmt(d2, "%.4f"),
           benchutil::fmt(cover1, "%.4f"), benchutil::fmt(cover2, "%.4f")});
  }
  t.print();
  benchutil::verdict(shrinking, "KS distance shrinks as faults multiply — the CLT regime "
                                "the paper invokes is real for 'very many possible faults'");
  benchutil::note("target coverage at k = 2.3263 is 0.99.");

  benchutil::section("where the approximation FAILS: the Section 4 safety-grade regime");
  const auto u = make_safety_grade_universe(40, 0.0, 0.01, 0.8, 92);
  const auto exact = pruned_pfd_distribution(u, 1, 1e-14);
  const auto approx = normal_approx(u, 1);
  std::printf("  P(Theta1 = 0) = %.4f; normal assigns P(Theta <= 0) = %.4f\n",
              exact.prob_zero(), approx.cdf(0.0));
  std::printf("  KS distance = %.4f — the normal is useless when mass concentrates at 0,\n",
              normal_approximation_distance(exact, approx));
  std::printf("  which is why Section 4 switches to P(N>0) instead of mu+k*sigma.\n");
  benchutil::verdict(normal_approximation_distance(exact, approx) > 0.2,
                     "the paper's regime split (Section 4 vs Section 5) is necessary");
  return benchutil::exit_status();
}
