// E17 — Fig. 1: the dual-channel 1-out-of-2 protection system, end to end.
// Plant dynamics generate demands; two separately developed software
// channels adjudicated by OR; measured channel and system PFDs compared
// with the abstract model's predictions.

#include <cstdio>

#include "bench_util.hpp"
#include "core/moments.hpp"
#include "demand/binding.hpp"
#include "protection/system.hpp"

int main() {
  using namespace reldiv;
  using namespace reldiv::demand;
  benchutil::title("E17", "Fig. 1 — dual-channel 1-out-of-2 protection system simulation");

  // Potential faults over the sensed 2-D demand space.
  const std::vector<region_fault> faults = {
      {make_box_region(box({0.00, 0.00}, {0.25, 0.30})), 0.35},
      {make_box_region(box({0.60, 0.55}, {0.95, 0.85})), 0.20},
      {make_box_region(box({0.40, 0.05}, {0.75, 0.20})), 0.45},
      {make_ellipsoid_region({0.2, 0.8}, {0.10, 0.08}), 0.10},
  };
  protection::plant::config pcfg;
  protection::plant pl(pcfg);

  // Calibrate q_i under the PLANT's demand profile by sampling its demands.
  benchutil::section("step 1: calibrate q_i under the plant's demand profile");
  stats::rng cal(171);
  const std::uint64_t cal_demands = 200000;
  std::vector<std::uint64_t> hits(faults.size(), 0);
  {
    protection::plant calibration_plant(pcfg);
    for (std::uint64_t d = 0; d < cal_demands; ++d) {
      const auto x = calibration_plant.next_demand(cal);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (faults[i].footprint->contains(x)) ++hits[i];
      }
    }
  }
  std::vector<core::fault_atom> atoms;
  benchutil::table q({"fault", "region", "p", "q (plant profile)"});
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const double qi = static_cast<double>(hits[i]) / static_cast<double>(cal_demands);
    atoms.push_back({faults[i].p, qi});
    q.row({std::to_string(i + 1), faults[i].footprint->describe(),
           benchutil::fmt(faults[i].p, "%.2f"), benchutil::fmt(qi, "%.5f")});
  }
  q.print();
  const core::fault_universe u(atoms, true);

  benchutil::section("step 2: many independent developments, operational campaigns");
  stats::rng dev(172);
  stats::rng op(173);
  const int developments = 300;
  const std::uint64_t demands_each = 4000;
  double sum_ch = 0.0;
  double sum_sys = 0.0;
  for (int d = 0; d < developments; ++d) {
    protection::one_out_of_two sys(protection::develop_channel(faults, dev),
                                   protection::develop_channel(faults, dev));
    protection::plant run_plant(pcfg);
    const auto res = protection::run_campaign(run_plant, sys, demands_each, op);
    sum_ch += 0.5 * (res.channel_a_pfd() + res.channel_b_pfd());
    sum_sys += res.system_pfd();
  }
  const double mean_channel_pfd = sum_ch / developments;
  const double mean_system_pfd = sum_sys / developments;

  const auto m1 = core::single_version_moments(u);
  const auto m2 = core::pair_moments(u);
  benchutil::table t({"quantity", "model (eq. 1)", "simulated", "rel. err"});
  t.row({"E[channel PFD]", benchutil::sci(m1.mean), benchutil::sci(mean_channel_pfd),
         benchutil::fmt(std::abs(mean_channel_pfd - m1.mean) / m1.mean, "%.3f")});
  t.row({"E[system PFD]", benchutil::sci(m2.mean), benchutil::sci(mean_system_pfd),
         benchutil::fmt(std::abs(mean_system_pfd - m2.mean) / m2.mean, "%.3f")});
  t.print();
  benchutil::verdict(std::abs(mean_channel_pfd - m1.mean) / m1.mean < 0.1 &&
                         std::abs(mean_system_pfd - m2.mean) / m2.mean < 0.25,
                     "full plant-in-the-loop simulation reproduces the abstract model's "
                     "channel and system PFDs (the Fig. 1 arrangement works as modelled)");
  std::printf("  diversity gain realized in simulation: %.1fx (model predicts %.1fx)\n",
              mean_channel_pfd / mean_system_pfd, m1.mean / m2.mean);
  return benchutil::exit_status();
}
