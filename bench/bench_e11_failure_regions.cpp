// E11 — Fig. 2: failure regions in a two-dimensional demand space, including
// the "non-intuitive shapes ... non-connected regions like arrays of separate
// points or lines" the paper cites from [9,10,11].  Renders the demand space
// and verifies geometric q_i against Monte-Carlo profile measures.

#include <cstdio>

#include "bench_util.hpp"
#include "demand/binding.hpp"
#include "demand/profile.hpp"
#include "demand/region.hpp"

int main() {
  using namespace reldiv;
  using namespace reldiv::demand;
  benchutil::title("E11", "Fig. 2 — failure regions in a 2-D demand space (var1 x var2)");

  // Five regions echoing the figure: blobs, an ellipse, a point array and a
  // stripe (the shapes reported for real programs).
  const std::vector<region_ptr> regions = {
      make_box_region(box({0.05, 0.55}, {0.30, 0.90})),                      // 1: blob
      make_ellipsoid_region({0.70, 0.75}, {0.12, 0.10}),                     // 2: ellipse
      make_box_region(box({0.45, 0.30}, {0.60, 0.45})),                      // 3: blob
      make_point_array_region({{0.15, 0.15}, {0.25, 0.15}, {0.35, 0.15},
                               {0.15, 0.25}, {0.25, 0.25}, {0.35, 0.25}},
                              0.02),                                         // 4: point array
      make_stripe_region(2, 0, 0.45, 0.012, 0.80),                           // 5: lines
  };

  benchutil::section("rendered demand space (digits = region index, '.' = no failure point)");
  std::printf("%s", render_regions_ascii(regions, box::unit(2), 72, 26).c_str());

  benchutil::section("q_i: geometric truth vs Monte-Carlo profile measure (uniform profile)");
  const uniform_profile prof(box::unit(2));
  const double exact_q[] = {
      0.25 * 0.35,                         // box 1
      3.14159265358979 * 0.12 * 0.10,      // ellipse area
      0.15 * 0.15,                         // box 3
      -1.0,                                // point array: islands overlap the grid; MC only
      -1.0,                                // stripes: ~3 bands of width 0.012
  };
  benchutil::table t({"region", "shape", "exact q", "MC q", "99% CI lo", "99% CI hi"});
  bool all_ok = true;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const auto est = estimate_hit_probability(*regions[i], prof, 400000, 100 + i);
    const bool ok = exact_q[i] < 0 || est.ci.contains(exact_q[i]);
    all_ok = all_ok && ok;
    t.row({std::to_string(i + 1), regions[i]->describe(),
           exact_q[i] < 0 ? "(MC only)" : benchutil::fmt(exact_q[i], "%.5f"),
           benchutil::fmt(est.q, "%.5f"), benchutil::fmt(est.ci.lo, "%.5f"),
           benchutil::fmt(est.ci.hi, "%.5f")});
  }
  t.print();
  benchutil::verdict(all_ok, "MC profile measures bracket the exact areas where known");

  benchutil::section("profile dependence of q (same regions, plant-like profile)");
  const auto plant_prof =
      make_truncated_normal_profile(box::unit(2), {0.5, 0.5}, {0.18, 0.18});
  benchutil::table p({"region", "q uniform", "q plant-profile", "factor"});
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const auto qu = estimate_hit_probability(*regions[i], prof, 300000, 200 + i);
    const auto qp = estimate_hit_probability(*regions[i], *plant_prof, 300000, 300 + i);
    p.row({std::to_string(i + 1), benchutil::fmt(qu.q, "%.5f"), benchutil::fmt(qp.q, "%.5f"),
           benchutil::fmt(qu.q > 0 ? qp.q / qu.q : 0.0, "%.2f")});
  }
  p.print();
  benchutil::note("'Each demand ... has a certain (possibly unknown) probability of");
  benchutil::note("happening' — the same fault's q changes by large factors across");
  benchutil::note("profiles, which is why q_i is a property of fault AND plant.");
  return benchutil::exit_status();
}
