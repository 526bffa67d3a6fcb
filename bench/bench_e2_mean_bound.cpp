// E2 — eq. (4): µ2 <= pmax·µ1 and the §3.1.1 claim that an assessor who can
// defend pmax = 0.1 gets "at least 10 times better PFD" on average.

#include <cstdio>

#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"

int main() {
  using namespace reldiv;
  benchutil::title("E2", "mean bound mu2 <= pmax * mu1 (eq. 4) and the 10x claim");
  benchutil::note("Paper §3.1.1: 'if an assessor were convinced that ... the probability of");
  benchutil::note("the most common fault [is] 10%, ... a two-version system ... has, on");
  benchutil::note("average, at least 10 times better PFD than a single version.'");

  benchutil::section("bound tightness across universe families");
  benchutil::table t({"universe", "pmax", "mu1", "mu2", "pmax*mu1", "actual gain", "bound gain"});
  bool all_hold = true;
  struct named {
    std::string name;
    core::fault_universe u;
  };
  const std::vector<named> cases = {
      {"dominant fault", core::make_dominant_fault_universe(25, 0.10, 0.02, 0.7, 1)},
      {"homogeneous p=0.1", core::make_homogeneous_universe(10, 0.1, 0.08)},
      {"safety grade", core::make_safety_grade_universe(50, 0.0, 0.05, 0.6, 2)},
      {"many small", core::make_many_small_faults_universe(300, 0.01, 0.10, 0.8, 0.3, 3)},
      {"wide p spread", core::make_random_universe(40, 0.6, 0.8, 4)},
  };
  for (const auto& [name, u] : cases) {
    const double mu1 = core::single_version_moments(u).mean;
    const double mu2 = core::pair_moments(u).mean;
    const double bound = core::mean_bound(mu1, u.p_max());
    all_hold = all_hold && (mu2 <= bound + 1e-15);
    t.row({name, benchutil::fmt(u.p_max(), "%.4f"), benchutil::sci(mu1),
           benchutil::sci(mu2), benchutil::sci(bound),
           benchutil::fmt(mu2 > 0 ? mu1 / mu2 : 0.0, "%.1f"),
           benchutil::fmt(1.0 / u.p_max(), "%.1f")});
  }
  t.print();
  benchutil::verdict(all_hold, "eq. (4) holds for every universe family tested");

  benchutil::section("the 10x claim at pmax = 0.1 (homogeneous worst case)");
  const auto u = core::make_homogeneous_universe(10, 0.1, 0.08);
  const double gain = core::mean_gain(u);
  std::printf("  pmax = 0.1 -> guaranteed mean gain >= 10; actual gain here = %.2f\n", gain);
  benchutil::verdict(gain >= 10.0 - 1e-9,
                     "pmax = 0.1 delivers at least the 10x average-PFD improvement");
  benchutil::note("(homogeneous p makes the bound exact: gain == 1/pmax)");
  return benchutil::exit_status();
}
