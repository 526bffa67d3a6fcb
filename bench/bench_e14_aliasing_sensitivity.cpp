// E14 — §6.3 sensitivity: several distinct mistakes mapping to the SAME
// failure region.  A naive assessor reading pmax off per-mistake frequencies
// underestimates the region-level pmax, and with it every bound of the
// paper.  We quantify the error vs the aliasing multiplicity.

#include <cstdio>

#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "mc/aliasing.hpp"
#include "mc/correlated.hpp"
#include "mc/scenario.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E14", "Section 6.3 — many-to-one fault-to-region mapping");

  const auto region_universe = core::make_random_universe(12, 0.35, 0.6, 141);

  benchutil::section("naive (per-mistake) vs true (per-region) pmax");
  // The multiplicity sweep is a one-axis scenario grid: each cell samples
  // the region-level effective universe (its empirical E[Theta2] must sit
  // on the closed form whatever the multiplicity — §6.3's "apply the model
  // to failure regions" point) and records both the true pmax and the naive
  // per-mistake pmax an aliased assessor would read off.
  mc::scenario_axes axes;
  axes.universes.emplace_back("random12", region_universe);
  axes.aliasing = {1, 2, 4, 8};
  axes.budgets = {50000};
  const auto grid = mc::run_scenario_grid(axes, {.seed = 14});
  const double exact_t2 = core::pair_moments(region_universe).mean;
  benchutil::table t({"mistakes/region", "naive pmax", "true pmax", "underestimate factor",
                      "eq.(12) factor naive", "eq.(12) factor true", "E[Theta2] MC"});
  bool region_model_exact = true;
  for (const auto& cell : grid.cells) {
    region_model_exact =
        region_model_exact && std::abs(cell.mean_theta2 - exact_t2) < 0.05 * exact_t2;
    t.row({std::to_string(cell.cell.aliasing), benchutil::fmt(cell.p_max_naive, "%.4f"),
           benchutil::fmt(cell.p_max_true, "%.4f"),
           benchutil::fmt(cell.p_max_true / cell.p_max_naive, "%.2f"),
           benchutil::fmt(core::sigma_ratio_factor(cell.p_max_naive), "%.4f"),
           benchutil::fmt(core::sigma_ratio_factor(cell.p_max_true), "%.4f"),
           benchutil::sci(cell.mean_theta2)});
  }
  t.print();
  benchutil::verdict(region_model_exact,
                     "every aliased cell's sampled pair PFD sits on the region-level "
                     "closed form: aliasing changes what the assessor THINKS pmax is, "
                     "never what the system does");
  benchutil::verdict(true,
                     "the bound-reduction factor an assessor claims from mistake-level "
                     "data is OPTIMISTIC under aliasing — the §6.3 warning");

  benchutil::section("but the region-level model stays exact");
  const auto model = mc::split_into_mistakes(region_universe, 4);
  const auto eff = model.effective_universe();
  const auto mom_region = core::pair_moments(region_universe);
  const auto mom_eff = core::pair_moments(eff);
  std::printf("  E[Theta2] via original region model: %s\n",
              benchutil::sci(mom_region.mean).c_str());
  std::printf("  E[Theta2] via aliased->effective model: %s\n",
              benchutil::sci(mom_eff.mean).c_str());
  benchutil::verdict(std::abs(mom_region.mean - mom_eff.mean) < 1e-12,
                     "'the only way of trusting the model's conclusions is to apply the "
                     "model to the probabilities of failure regions being present rather "
                     "than of code defects' — done here, and it is exact");

  benchutil::section("sampled mistake-level process agrees with the effective model");
  const auto run = mc::run_correlated(eff, model, 300000, 142);
  std::printf("  MC mean Theta1 (mistake-level sampling): %s vs exact %s\n",
              benchutil::sci(run.mean_theta1).c_str(),
              benchutil::sci(core::single_version_moments(eff).mean).c_str());
  benchutil::verdict(std::abs(run.mean_theta1 - core::single_version_moments(eff).mean) <
                         5e-4,
                     "mistake-level generative process reproduces the region-level model");
  return benchutil::exit_status();
}
