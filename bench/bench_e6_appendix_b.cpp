// E6 — §4.2.2 / Appendix B: with p_i = k·b_i, the eq. (10) ratio is
// non-decreasing in k for ANY b — uniform process improvement always
// increases the gain from diversity.

#include <cstdio>

#include "bench_util.hpp"
#include "core/no_common_fault.hpp"
#include "stats/random.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E6", "Appendix B: proportional improvement p_i = k*b_i is always gain-increasing");

  benchutil::section("ratio vs k for three b-profiles (n = 20)");
  stats::rng r(61);
  std::vector<double> uniform_b(20, 0.4);
  std::vector<double> spread_b(20);
  for (auto& b : spread_b) b = 0.9 * r.uniform();
  std::vector<double> skewed_b(20, 0.01);
  skewed_b[0] = 0.9;

  benchutil::table t({"k", "R uniform b", "R random b", "R one-dominant b"});
  double prev_u = 0.0, prev_r = 0.0, prev_s = 0.0;
  bool monotone = true;
  for (const double k : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double ru = core::risk_ratio_scaled(uniform_b, k);
    const double rr = core::risk_ratio_scaled(spread_b, k);
    const double rs = core::risk_ratio_scaled(skewed_b, k);
    monotone = monotone && ru >= prev_u - 1e-12 && rr >= prev_r - 1e-12 && rs >= prev_s - 1e-12;
    prev_u = ru; prev_r = rr; prev_s = rs;
    t.row({benchutil::fmt(k, "%.2f"), benchutil::fmt(ru, "%.5f"),
           benchutil::fmt(rr, "%.5f"), benchutil::fmt(rs, "%.5f")});
  }
  t.print();
  benchutil::verdict(monotone, "ratio non-decreasing in k for all three profiles");

  benchutil::section("randomized sweep: 200 random b-vectors, n in {2..50}");
  int violations = 0;
  int checked = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + r.below(49);
    std::vector<double> b(n);
    for (auto& x : b) x = 0.95 * r.uniform();
    if (!core::appendix_b_monotone_on_grid(b, 0.02, 1.0, 40)) ++violations;
    // Derivative spot checks.
    for (int s = 0; s < 3; ++s) {
      const double k = r.uniform(0.05, 0.95);
      if (core::risk_ratio_scale_derivative(b, k) < -1e-9) ++violations;
      ++checked;
    }
  }
  std::printf("  %d monotonicity grids + %d derivative spot-checks, %d violations\n", 200,
              checked, violations);
  benchutil::verdict(violations == 0,
                     "dR/dk >= 0 everywhere sampled — Appendix B's theorem reproduced");

  benchutil::section("interpretation");
  benchutil::note("Halving k halves every p_i; the table shows the eq. (10) ratio then");
  benchutil::note("drops, i.e. 'switching to a better process that produces fewer of ALL");
  benchutil::note("kinds of faults should make diversity even more useful' (paper §7).");
  return benchutil::exit_status();
}
