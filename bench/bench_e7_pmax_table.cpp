// E7 — the §5.1 table: pmax -> sqrt(pmax(1+pmax)), the paper's guaranteed
// confidence-bound reduction ("β-factor") from diversity.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/bounds.hpp"

int main() {
  using namespace reldiv::core;
  benchutil::title("E7", "the pmax table of Section 5.1 (guaranteed bound-reduction factor)");
  benchutil::note("Paper's rows:  pmax 0.5 -> 0.866 ; 0.1 -> 0.332 ; 0.01 -> 0.100");

  struct row {
    double pmax;
    double paper;  // value printed in the paper (3 decimals); <0 = not given
  };
  const std::vector<row> rows = {
      {0.5, 0.866}, {0.1, 0.332}, {0.01, 0.100},
      // extended rows beyond the paper
      {0.05, -1.0}, {0.001, -1.0}, {1e-4, -1.0},
  };

  benchutil::table t({"pmax", "paper value", "computed", "sqrt(pmax) approx", "match"});
  bool all_match = true;
  for (const auto& [pmax, paper] : rows) {
    const double computed = sigma_ratio_factor(pmax);
    const bool match = paper < 0 || std::abs(computed - paper) < 5e-4;
    all_match = all_match && match;
    t.row({benchutil::fmt(pmax, "%.4g"), paper < 0 ? "(extended)" : benchutil::fmt(paper, "%.3f"),
           benchutil::fmt(computed, "%.6f"), benchutil::fmt(std::sqrt(pmax), "%.6f"),
           paper < 0 ? "-" : (match ? "yes" : "NO")});
  }
  t.print();
  benchutil::verdict(all_match, "all three paper rows reproduced to the printed precision");
  benchutil::verdict(std::abs(sigma_ratio_factor(1e-4) / std::sqrt(1e-4) - 1.0) < 1e-4,
                     "for small pmax the factor converges to sqrt(pmax), as the paper notes");

  benchutil::section("beta-factor reading");
  benchutil::note("'The last line gives us a 10-fold improvement, from using diversity, in");
  benchutil::note("any confidence bound on system PFD' — at pmax = 0.01 the factor is 0.100,");
  benchutil::note("i.e. a guaranteed 10x tightening of ANY one-sided bound (eq. 12).");
  return benchutil::exit_status();
}
