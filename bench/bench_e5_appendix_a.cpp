// E5 — §4.2.1 / Appendix A: improving the process on a SINGLE fault class
// can reduce the gain from diversity.  Reproduces the two-fault derivative
// analysis: sign map, the interior zero p1z, and the trend reversal.
//
// NOTE (DESIGN.md §2): the closed-form root printed here is our independent
// re-derivation; the OCR'd appendix's root expression is garbled and its
// claim p1z > p2 contradicts direct numerics.  The paper's *qualitative*
// headline — both derivative signs occur — is what this bench verifies.

#include <cstdio>

#include "bench_util.hpp"
#include "core/no_common_fault.hpp"

int main() {
  using namespace reldiv::core;
  benchutil::title("E5", "Appendix A: single-parameter improvement trend reversal");

  benchutil::section("closed-form root p1z(p2) vs numeric zero of dR/dp1");
  benchutil::table t({"p2", "p1z closed", "p1z numeric", "dR/dp1 at p1z", "R(p1z,p2)"});
  bool roots_agree = true;
  for (const double p2 : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    const double root = appendix_a_root(p2);
    fault_universe u({{root, 0.0}, {p2, 0.0}});
    const double numeric = find_derivative_zero(u, 0);
    const double deriv = risk_ratio_derivative(u, 0);
    roots_agree = roots_agree && std::abs(numeric - root) < 1e-7;
    t.row({benchutil::fmt(p2, "%.2f"), benchutil::fmt(root, "%.6f"),
           benchutil::fmt(numeric, "%.6f"), benchutil::sci(deriv),
           benchutil::fmt(risk_ratio_two_faults(root, p2), "%.5f")});
  }
  t.print();
  benchutil::verdict(roots_agree, "closed-form root matches the numeric zero for all p2");

  benchutil::section("derivative sign map (rows: p1, cols: p2; '-' gain-reducing, '+' gain-increasing)");
  std::printf("        ");
  for (double p2 = 0.1; p2 < 0.95; p2 += 0.1) std::printf("p2=%.1f ", p2);
  std::printf("\n");
  for (double p1 = 0.02; p1 < 0.95; p1 += 0.06) {
    std::printf("  p1=%.2f ", p1);
    for (double p2 = 0.1; p2 < 0.95; p2 += 0.1) {
      fault_universe u({{p1, 0.0}, {p2, 0.0}});
      std::printf("  %c    ", risk_ratio_derivative(u, 0) < 0 ? '-' : '+');
    }
    std::printf("\n");
  }
  benchutil::note("'-' region: decreasing p1 RAISES the eq. (10) ratio — improving the");
  benchutil::note("process on that fault class makes diversity LESS effective.");

  benchutil::section("worked trend reversal (p2 = 0.5)");
  const double p2 = 0.5;
  const double root = appendix_a_root(p2);
  benchutil::table rev({"p1", "R(p1, 0.5)", "improving p1 by 50% ->", "gain change"});
  for (const double p1 : {root * 0.4, root, root * 3.0}) {
    const double before = risk_ratio_two_faults(p1, p2);
    const double after = risk_ratio_two_faults(p1 * 0.5, p2);
    rev.row({benchutil::fmt(p1, "%.4f"), benchutil::fmt(before, "%.5f"),
             benchutil::fmt(after, "%.5f"),
             after < before ? "gain improves" : "gain DEGRADES"});
  }
  rev.print();
  benchutil::verdict(risk_ratio_two_faults(root * 0.2, p2) > risk_ratio_two_faults(root * 0.4, p2),
                     "below p1z, further targeted improvement degrades the diversity gain "
                     "— the paper's counterintuitive Appendix A result");

  benchutil::section("generalization beyond n = 2 (paper proves n = 2 only)");
  fault_universe u5({{0.02, 0.0}, {0.3, 0.0}, {0.4, 0.0}, {0.1, 0.0}, {0.25, 0.0}});
  benchutil::table g({"fault i", "p_i", "dR/dp_i", "sign"});
  for (std::size_t i = 0; i < u5.size(); ++i) {
    const double d = risk_ratio_derivative(u5, i);
    g.row({std::to_string(i), benchutil::fmt(u5[i].p, "%.2f"), benchutil::sci(d),
           d < 0 ? "-" : "+"});
  }
  g.print();
  benchutil::verdict(risk_ratio_derivative(u5, 0) < 0 && risk_ratio_derivative(u5, 2) > 0,
                     "both derivative signs coexist in one n=5 universe: the reversal is "
                     "not an artefact of n = 2");
  return benchutil::exit_status();
}
