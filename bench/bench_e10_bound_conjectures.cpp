// E10 — the §5.2 conjectures, for which the paper has "no theorems ...
// based on numerical solutions of special cases":
//   (a) the bound-ratio gain improves under proportional improvement;
//   (b) it may increase OR decrease under single-parameter improvement;
//   (c) the bound DIFFERENCE (µ1+kσ1)-(µ2+kσ2) grows with any p_i increase.
// We verify all three numerically at scale.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/improvement.hpp"
#include "core/moments.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::core;

double bound(const fault_universe& u, unsigned m, double k) {
  const auto mom = one_out_of_m_moments(u, m);
  return mom.mean + k * mom.stddev();
}

double bound_ratio(const fault_universe& u, double k) {
  return bound(u, 2, k) / bound(u, 1, k);
}

}  // namespace

int main() {
  benchutil::title("E10", "Section 5.2 conjectures on bounds under process improvement");
  const double k = 2.3263;  // 99% one-sided

  benchutil::section("(a) proportional improvement: bound ratio vs scale factor");
  const auto base = make_many_small_faults_universe(120, 0.05, 0.35, 0.8, 0.25, 5);
  benchutil::table t({"scale", "bound1", "bound2", "ratio bound2/bound1"});
  double prev_ratio = 0.0;
  bool monotone = true;
  for (const double s : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto u = improve_all(base, s);
    const double ratio = bound_ratio(u, k);
    monotone = monotone && ratio >= prev_ratio - 1e-12;
    prev_ratio = ratio;
    t.row({benchutil::fmt(s, "%.2f"), benchutil::sci(bound(u, 1, k)),
           benchutil::sci(bound(u, 2, k)), benchutil::fmt(ratio, "%.5f")});
  }
  t.print();
  benchutil::verdict(monotone,
                     "conjecture (a): the gain (smaller ratio) improves as all p_i shrink");

  benchutil::section("(b) single-parameter improvement can move the ratio either way");
  // Improve only fault 0 in two universes: one where fault 0 dominates, one
  // where it is negligible.
  const auto dom = make_dominant_fault_universe(30, 0.5, 0.05, 0.7, 6);
  const auto dom_improved = improve_single(dom, 0, 0.3);
  const double dom_before = bound_ratio(dom, k);
  const double dom_after = bound_ratio(dom_improved, k);

  auto atoms = dom.atoms();
  atoms[0].p = 0.002;  // now fault 0 is the LEAST likely
  const fault_universe weak(atoms);
  const auto weak_improved = improve_single(weak, 0, 0.3);
  const double weak_before = bound_ratio(weak, k);
  const double weak_after = bound_ratio(weak_improved, k);

  benchutil::table b({"case", "ratio before", "ratio after", "gain change"});
  b.row({"improve DOMINANT fault", benchutil::fmt(dom_before, "%.5f"),
         benchutil::fmt(dom_after, "%.5f"),
         dom_after < dom_before ? "improves" : "DEGRADES"});
  b.row({"improve negligible fault", benchutil::fmt(weak_before, "%.5f"),
         benchutil::fmt(weak_after, "%.5f"),
         weak_after < weak_before ? "improves" : "DEGRADES"});
  b.print();
  benchutil::verdict(dom_after < dom_before && weak_after >= weak_before,
                     "conjecture (b): both directions realized — targeted improvement is "
                     "not guaranteed to preserve the diversity gain");

  benchutil::section("(c) bound difference vs p_i increases — regime-dependent");
  stats::rng r(7);
  auto count_violations = [&](auto make_universe, int reps) {
    int violations = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto u = make_universe(rep);
      const std::size_t i = r.below(u.size());
      if (u[i].p > 0.95) continue;
      auto raised = u.atoms();
      raised[i].p = std::min(1.0, raised[i].p + 0.02);
      const fault_universe v(raised, true);
      const double diff_before = bound(u, 1, k) - bound(u, 2, k);
      const double diff_after = bound(v, 1, k) - bound(v, 2, k);
      if (diff_after < diff_before - 1e-12) ++violations;
    }
    return violations;
  };
  const int v_paper_regime = count_violations(
      [](int rep) {
        return make_many_small_faults_universe(120, 0.05, 0.35, 0.8, 0.25, 2000 + rep);
      },
      300);
  const int v_wide = count_violations(
      [](int rep) { return make_random_universe(25, 0.9, 0.8, 1000 + rep); }, 300);
  std::printf("  many-small-faults regime (the paper's §5 setting): %d/300 violations\n",
              v_paper_regime);
  std::printf("  wide-open parameters (p up to 0.9, n = 25):        %d/300 violations\n",
              v_wide);
  benchutil::verdict(v_paper_regime == 0,
                     "conjecture (c) holds throughout the paper's many-small-faults regime");
  benchutil::verdict(v_wide > 0,
                     "REPRODUCTION FINDING: conjecture (c) is NOT universal — outside the "
                     "§5 regime the sigma2 sensitivity can dominate (e.g. p > 1/2 shrinks "
                     "mu1 - mu2, and near-degenerate sigma2 reacts sharply), so the bound "
                     "gap can narrow.  The paper offers (c) from 'numerical solutions of "
                     "special cases' only; the special cases matter.");
  return benchutil::exit_status();
}
