// E20 (extension/ablation) — architecture study beyond the paper's 1oo2:
// simplex vs 1oo2 vs 2oo3 vs 1oo3 on demand-failure PFD, no-defeating-fault
// probability, AND the spurious-trip price the paper's "perfect
// adjudication, OR combination" setting abstracts away.

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/kofn.hpp"
#include "core/moments.hpp"
#include "core/no_common_fault.hpp"

int main() {
  using namespace reldiv::core;
  benchutil::title("E20", "architecture ablation: m-out-of-n diverse systems");

  const auto demand_faults = make_safety_grade_universe(40, 0.0, 0.08, 0.6, 201);
  // Spurious-trip faults: regions of NORMAL operation where a version trips.
  const auto spurious_faults = make_safety_grade_universe(25, 0.0, 0.10, 0.4, 202);

  const architecture archs[] = {architecture::simplex(), architecture::one_out_of_two(),
                                architecture::two_out_of_three(), architecture{3, 3}};

  benchutil::section("demand-failure side (the paper's measure) and the availability price");
  benchutil::table t({"architecture", "E[PFD]", "gain vs simplex", "P(defeat-free)",
                      "risk ratio", "spurious rate", "spurious x"});
  const double simplex_pfd = architecture_moments(demand_faults, archs[0]).mean;
  const double simplex_sp = mean_spurious_rate(spurious_faults, archs[0]);
  for (const auto& arch : archs) {
    const auto m = architecture_moments(demand_faults, arch);
    const double sp = mean_spurious_rate(spurious_faults, arch);
    t.row({arch.describe(), benchutil::sci(m.mean),
           benchutil::fmt(simplex_pfd / m.mean, "%.1f"),
           benchutil::fmt(prob_architecture_fault_free(demand_faults, arch), "%.5f"),
           benchutil::fmt(architecture_risk_ratio(demand_faults, arch), "%.5f"),
           benchutil::sci(sp), benchutil::fmt(sp / simplex_sp, "%.2f")});
  }
  t.print();
  benchutil::verdict(
      architecture_moments(demand_faults, architecture{3, 3}).mean <
          architecture_moments(demand_faults, architecture::one_out_of_two()).mean,
      "more independent versions monotonically improve the demand-failure side");
  benchutil::verdict(
      mean_spurious_rate(spurious_faults, architecture::one_out_of_two()) > simplex_sp,
      "but 1oo2 OR-adjudication pays in spurious trips (any one channel trips the "
      "plant) — 2oo3 is the classic compromise, visible in the table");

  benchutil::section("where majority voting backfires (p > 1/2)");
  benchutil::table v({"p", "simplex", "2oo3 defeat prob", "verdict"});
  for (const double p : {0.2, 0.4, 0.5, 0.6, 0.8}) {
    const double d = defeat_probability(p, architecture::two_out_of_three());
    v.row({benchutil::fmt(p, "%.1f"), benchutil::fmt(p, "%.3f"), benchutil::fmt(d, "%.3f"),
           d < p ? "voting helps" : (d > p ? "voting HURTS" : "fixed point")});
  }
  v.print();
  benchutil::note("The fault-creation model reproduces the classic reliability-theory");
  benchutil::note("reversal at p = 1/2 — a useful sanity anchor for the machinery.");

  benchutil::section("1oo2 correspondence check");
  benchutil::verdict(
      std::abs(architecture_moments(demand_faults, architecture::one_out_of_two()).mean -
               pair_moments(demand_faults).mean) < 1e-15 &&
          std::abs(architecture_risk_ratio(demand_faults, architecture::one_out_of_two()) -
                   risk_ratio(demand_faults)) < 1e-12,
      "the general m-out-of-n machinery reduces exactly to the paper's eqs. (1)/(10) "
      "for the 1-out-of-2 case");
  return benchutil::exit_status();
}
