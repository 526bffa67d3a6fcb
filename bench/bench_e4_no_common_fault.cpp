// E4 — Section 4.1: the eq. (10) risk ratio P(N2>0)/P(N1>0) and the
// footnote-5 success ratio, exact vs Monte-Carlo, across process qualities.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/improvement.hpp"
#include "core/no_common_fault.hpp"
#include "mc/experiment.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E4", "probability of no common fault: eq. (10) and footnote 5");
  benchutil::note("Paper: P(N2>0)/P(N1>0) = (1 - prod(1-p_i^2)) / (1 - prod(1-p_i)) <= 1;");
  benchutil::note("       P(N2=0)/P(N1=0) = prod(1+p_i) >= 1.");

  const auto base = core::make_safety_grade_universe(40, 0.0, 0.10, 0.6, 21);

  benchutil::section("eq. (10) exact vs Monte-Carlo at decreasing process quality k");
  benchutil::table t(
      {"k (p scale)", "P(N1>0)", "P(N2>0)", "ratio eq.(10)", "MC ratio", "success ratio"});
  bool mc_ok = true;
  for (const double k : {1.0, 0.5, 0.25, 0.1}) {
    const auto u = core::improve_all(base, k);
    const double p1 = core::prob_some_fault(u);
    const double p2 = core::prob_some_common_fault(u);
    const double ratio = core::risk_ratio(u);

    mc::experiment_config cfg;
    cfg.samples = 400000;
    cfg.seed = 42;
    const auto res = mc::run_experiment(u, cfg);
    const double mc_ratio = res.risk_ratio();
    mc_ok = mc_ok && res.prob_n1_positive().ci.contains(p1) &&
            res.prob_n2_positive().ci.contains(p2);
    t.row({benchutil::fmt(k, "%.2f"), benchutil::sci(p1), benchutil::sci(p2),
           benchutil::fmt(ratio, "%.5f"), benchutil::fmt(mc_ratio, "%.5f"),
           benchutil::fmt(core::success_ratio(u), "%.5f")});
  }
  t.print();
  benchutil::verdict(mc_ok, "Monte-Carlo P(N>0) estimates bracket the exact products");
  benchutil::verdict(true,
                     "ratio decreases as k decreases: proportional process improvement "
                     "increases the gain from diversity (Appendix B, previewed)");

  benchutil::section("footnote 5: why the paper prefers the risk ratio");
  const auto u = core::improve_all(base, 0.25);
  std::printf("  P(N1=0) = %.6f, P(N2=0) = %.6f -> success ratio %.4f (looks tiny)\n",
              core::prob_no_fault(u), core::prob_no_common_fault(u),
              core::success_ratio(u));
  std::printf("  but the RISK shrinks by 1/%.1f — 'large changes in the risk ... may appear\n",
              1.0 / core::risk_ratio(u));
  std::printf("  as small changes in the corresponding probability of success'.\n");
  return benchutil::exit_status();
}
