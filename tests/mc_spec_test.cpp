// mc::sweep_spec — the declarative sweep-spec layer: parse/write round-trips
// through the manifest fingerprint, exact file:line: field diagnostics, the
// new correlation/adjudication/demand axes pinned bit-exactly against direct
// library calls, and the deterministic adaptive-refinement rule.
#include "mc/spec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/simd_sampler.hpp"
#include "demand/raster.hpp"
#include "demand/region.hpp"
#include "mc/aliasing.hpp"
#include "mc/correlated.hpp"
#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"
#include "mc/shard_runner.hpp"
#include "stats/descriptive.hpp"
#include "stats/random.hpp"

namespace mc = reldiv::mc;
namespace core = reldiv::core;
namespace demand = reldiv::demand;
namespace stats = reldiv::stats;

namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool moments_bits_equal(const stats::running_moments_state& a,
                        const stats::running_moments_state& b) {
  return a.count == b.count && bits_equal(a.m1, b.m1) && bits_equal(a.m2, b.m2) &&
         bits_equal(a.m3, b.m3) && bits_equal(a.m4, b.m4) && bits_equal(a.min, b.min) &&
         bits_equal(a.max, b.max);
}

constexpr const char* kScenarioSpec = R"(# two-universe scenario
[sweep]
kind = scenario
seed = 77
stress = 1.6

[universe safety_grade]
generator = safety_grade
faults = 40
p_lo = 0
p_hi = 0.05
q_total = 0.6
gen_seed = 11

[universe many_small]
generator = many_small
faults = 64
p_lo = 0.05
p_hi = 0.3
q_total = 0.8
jitter = 0.2
gen_seed = 12

[axes]
rho = 0 0.3
omega = 1 0.5
aliasing = 1 4
budget = 1000
)";

mc::sweep_spec parse_ok(const std::string& text, const mc::spec_overrides& ov = {}) {
  mc::spec_parse_result r = mc::parse_sweep_spec(text, "test.spec", ov);
  for (const mc::spec_error& e : r.errors) ADD_FAILURE() << e.render();
  EXPECT_TRUE(r.spec.has_value());
  return std::move(*r.spec);
}

std::vector<mc::spec_error> parse_errors(const std::string& text) {
  mc::spec_parse_result r = mc::parse_sweep_spec(text, "test.spec");
  EXPECT_FALSE(r.spec.has_value());
  EXPECT_FALSE(r.errors.empty());
  return std::move(r.errors);
}

bool has_error(const std::vector<mc::spec_error>& errors, std::size_t line,
               const std::string& field) {
  for (const mc::spec_error& e : errors) {
    if (e.line == line && e.field == field) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parse -> manifest equivalence with direct library calls
// ---------------------------------------------------------------------------

TEST(SweepSpec, ScenarioSpecMatchesDirectAxesConstruction) {
  const mc::sweep_spec spec = parse_ok(kScenarioSpec);
  ASSERT_EQ(spec.kind, mc::job_kind::scenario_grid);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);

  mc::scenario_axes axes;
  axes.universes.emplace_back("safety_grade",
                              core::make_safety_grade_universe(40, 0.0, 0.05, 0.6, 11));
  axes.universes.emplace_back(
      "many_small", core::make_many_small_faults_universe(64, 0.05, 0.3, 0.8, 0.2, 12));
  axes.correlations = {0.0, 0.3};
  axes.overlaps = {1.0, 0.5};
  axes.aliasing = {1, 4};
  axes.budgets = {1000};
  axes.stress = 1.6;
  mc::sweep_manifest direct;
  direct.axes = axes;
  direct.seed = 77;
  direct.shards = 0;
  direct.cell_count = mc::enumerate_cells(axes).size();

  EXPECT_EQ(m.cell_count, 16u);
  EXPECT_EQ(mc::manifest_fingerprint(m), mc::manifest_fingerprint(direct));
}

TEST(SweepSpec, OverridesReplaceSpecValues) {
  mc::spec_overrides ov;
  ov.seed = 123;
  ov.budget = 5000;
  ov.shards = 7;
  const mc::sweep_spec spec = parse_ok(kScenarioSpec, ov);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  EXPECT_EQ(m.seed, 123u);
  EXPECT_EQ(m.shards, 7u);
  ASSERT_EQ(m.axes.budgets.size(), 1u);
  EXPECT_EQ(m.axes.budgets[0], 5000u);
}

TEST(SweepSpec, DemandRosterMatchesLegacyDerivation) {
  const std::string text =
      "[sweep]\nkind = demand\nseed = 77\n"
      "[demand]\ndemands = 1000\nwindow = 8\ntargets = 50\n"
      "pfd_lo = 1e-06\npfd_ratio = 1000\n";
  const mc::sweep_spec spec = parse_ok(text);
  const auto& m = std::get<mc::demand_manifest>(spec.manifest);
  ASSERT_EQ(m.target_pfd.size(), 50u);
  // The historical CLI roster, reproduced here verbatim.
  for (std::size_t t = 0; t < 50; ++t) {
    std::uint64_t state = 77ULL ^ (0x9e3779b97f4a7c15ULL * (t + 0x51ed2701ULL));
    const double u = static_cast<double>(stats::splitmix64_next(state) >> 11) * 0x1.0p-53;
    EXPECT_TRUE(bits_equal(m.target_pfd[t], 1e-6 * std::pow(1000.0, u))) << t;
  }
}

TEST(SweepSpec, ExperimentSpecResolvesManifest) {
  const std::string text =
      "[sweep]\nkind = experiment\nseed = 5\nshards = 32\n"
      "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.01\nq = 0.02\n"
      "[experiment]\nuniverse = u\nsamples = 9000\nengine = exact\nwindow = 8\n";
  const mc::sweep_spec spec = parse_ok(text);
  const auto& m = std::get<mc::experiment_manifest>(spec.manifest);
  EXPECT_EQ(m.samples, 9000u);
  EXPECT_EQ(m.seed, 5u);
  EXPECT_EQ(m.shards, 32u);
  EXPECT_EQ(m.engine, mc::sampling_engine::exact);
  EXPECT_EQ(m.window, 8u);
  mc::experiment_config cfg;
  cfg.samples = 9000;
  cfg.seed = 5;
  cfg.shards = 32;
  cfg.engine = mc::sampling_engine::exact;
  const mc::experiment_manifest direct = mc::make_experiment_manifest(
      core::make_homogeneous_universe(8, 0.01, 0.02), cfg, 8);
  EXPECT_EQ(mc::experiment_manifest_fingerprint(m),
            mc::experiment_manifest_fingerprint(direct));
}

// ---------------------------------------------------------------------------
// Write -> parse round-trips through the fingerprint
// ---------------------------------------------------------------------------

TEST(SweepSpec, ScenarioRoundTripPreservesFingerprint) {
  const mc::sweep_spec spec = parse_ok(kScenarioSpec);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  const std::string text = mc::write_sweep_spec(spec);
  const mc::sweep_spec again = parse_ok(text);
  const auto& m2 = std::get<mc::sweep_manifest>(again.manifest);
  EXPECT_EQ(mc::manifest_fingerprint(m), mc::manifest_fingerprint(m2));
  // And the writer is a fixed point: write(parse(write(s))) == write(s).
  EXPECT_EQ(mc::write_sweep_spec(again), text);

  // The writer is shared by every kind: an experiment drawing from its
  // second universe section round-trips to the same universe.
  const mc::sweep_spec experiment = parse_ok(
      "[sweep]\nkind = experiment\nseed = 9\nshards = 16\n"
      "[universe a]\ngenerator = homogeneous\nfaults = 8\np = 0.01\nq = 0.02\n"
      "[universe b]\ngenerator = homogeneous\nfaults = 16\np = 0.02\nq = 0.01\n"
      "[experiment]\nuniverse = b\nsamples = 4000\nwindow = 4\n");
  const std::string written = mc::write_sweep_spec(experiment);
  const mc::sweep_spec experiment2 = parse_ok(written);
  EXPECT_EQ(mc::experiment_manifest_fingerprint(
                std::get<mc::experiment_manifest>(experiment2.manifest)),
            mc::experiment_manifest_fingerprint(
                std::get<mc::experiment_manifest>(experiment.manifest)))
      << written;
  EXPECT_EQ(mc::write_sweep_spec(experiment2), written);
}

TEST(SweepSpec, NewAxesRoundTripPreservesFingerprint) {
  const std::string text =
      "[sweep]\nkind = scenario\nseed = 3\nrho_model = copula\n"
      "[universe u]\ngenerator = homogeneous\nfaults = 16\np = 0.05\nq = 0.01\n"
      "[axes]\nrho = -0.5 0 0.5\nomega = 1\naliasing = 1\n"
      "adjudication = 2of2 2of3 1of1\nbudget = 100\n";
  const mc::sweep_spec spec = parse_ok(text);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  EXPECT_EQ(m.axes.rho_model, mc::correlation_model::copula);
  ASSERT_EQ(m.axes.adjudications.size(), 3u);
  EXPECT_EQ(m.axes.adjudications[1].versions, 3u);
  EXPECT_EQ(m.axes.adjudications[1].votes_to_defeat, 2u);
  EXPECT_EQ(m.cell_count, 9u);
  const mc::sweep_spec again = parse_ok(mc::write_sweep_spec(spec));
  EXPECT_EQ(mc::manifest_fingerprint(m),
            mc::manifest_fingerprint(std::get<mc::sweep_manifest>(again.manifest)));
}

TEST(SweepSpec, DemandRoundTripsBothRosterForms) {
  const std::string compact =
      "[sweep]\nkind = demand\nseed = 9\n"
      "[demand]\ndemands = 500\nwindow = 4\ntargets = 20\n";
  const mc::sweep_spec spec = parse_ok(compact);
  const auto& m = std::get<mc::demand_manifest>(spec.manifest);
  const mc::sweep_spec again = parse_ok(mc::write_sweep_spec(spec));
  EXPECT_EQ(mc::demand_manifest_fingerprint(m),
            mc::demand_manifest_fingerprint(std::get<mc::demand_manifest>(again.manifest)));

  const std::string explicit_form =
      "[sweep]\nkind = demand\nseed = 9\n"
      "[demand]\ndemands = 500\nwindow = 4\ntarget_pfd = 1e-05 0.0001 2e-3\n";
  const mc::sweep_spec spec2 = parse_ok(explicit_form);
  const auto& m2 = std::get<mc::demand_manifest>(spec2.manifest);
  ASSERT_EQ(m2.target_pfd.size(), 3u);
  const mc::sweep_spec again2 = parse_ok(mc::write_sweep_spec(spec2));
  EXPECT_EQ(
      mc::demand_manifest_fingerprint(m2),
      mc::demand_manifest_fingerprint(std::get<mc::demand_manifest>(again2.manifest)));
}

TEST(SweepSpec, SpecFromManifestIsLaunchable) {
  const mc::sweep_spec spec = parse_ok(kScenarioSpec);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  // The describe path: manifest -> explicit-atom spec -> parse -> same
  // fingerprint, with no generator declarations to lean on.
  const mc::sweep_spec recovered = mc::spec_from_manifest(spec.manifest);
  const mc::sweep_spec again = parse_ok(mc::write_sweep_spec(recovered));
  EXPECT_EQ(mc::manifest_fingerprint(m),
            mc::manifest_fingerprint(std::get<mc::sweep_manifest>(again.manifest)));
}

TEST(SweepSpec, DescribeJsonCarriesIdentity) {
  const mc::sweep_spec spec = parse_ok(kScenarioSpec);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  const std::string json = mc::describe_manifest_json(spec.manifest);
  EXPECT_NE(json.find("\"kind\": \"scenario_grid\""), std::string::npos);
  EXPECT_NE(json.find("\"rho_model\": \"mixture\""), std::string::npos);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%llu",
                static_cast<unsigned long long>(mc::manifest_fingerprint(m)));
  EXPECT_NE(json.find(fp), std::string::npos);
}

// ---------------------------------------------------------------------------
// Diagnostics: exact file:line: field positions, never throwing
// ---------------------------------------------------------------------------

TEST(SweepSpec, DiagnosticsCarryExactPositions) {
  const std::string text =
      "[sweep]\n"                               // 1
      "kind = scenario\n"                       // 2
      "seed = 99999999999999999999999\n"        // 3: overflow
      "seed = 5\n"                              // 4: duplicate
      "stress = abc\n"                          // 5: bad double
      "[unknownsec]\n"                          // 6: unknown section
      "[universe u\n"                           // 7: torn header
      "[universe ok]\n"                         // 8
      "generator = safety_grade\n"              // 9
      "faults = 4\n"                            // 10
      "mystery = 1\n";                          // 11: unknown key
  const auto errors = parse_errors(text);
  EXPECT_TRUE(has_error(errors, 3, "seed"));
  EXPECT_TRUE(has_error(errors, 4, "seed"));
  EXPECT_TRUE(has_error(errors, 5, "stress"));
  EXPECT_TRUE(has_error(errors, 6, "unknownsec"));
  EXPECT_TRUE(has_error(errors, 7, ""));
  EXPECT_TRUE(has_error(errors, 11, "mystery"));
  for (const mc::spec_error& e : errors) EXPECT_EQ(e.file, "test.spec");
  // render() is the file:line: field: message contract.
  mc::spec_error sample{"f.spec", 12, "rho", "boom"};
  EXPECT_EQ(sample.render(), "f.spec:12: rho: boom");
}

TEST(SweepSpec, ShardsAndWindowPastThirtyTwoBitsRejected) {
  // The library holds shards and window as unsigned counts, so a value past
  // 2^32 - 1 is an error at its line: truncated, 4294967297 experiment
  // shards would run as 1, 4294967298 scenario shards as 2 per cell, and
  // window 4294967296 as 0, one window over every shard.
  const auto experiment = [](const std::string& sweep_extra, const std::string& exp_extra) {
    return "[sweep]\nkind = experiment\nseed = 2026\n" + sweep_extra +
           "[universe u]\ngenerator = safety_grade\nfaults = 24\np_hi = 0.05\n"
           "[experiment]\nuniverse = u\nsamples = 50000\n" +
           exp_extra;
  };
  const auto scenario = [](const std::string& sweep_extra) {
    return "[sweep]\nkind = scenario\nseed = 2026\n" + sweep_extra +
           "[universe u]\ngenerator = safety_grade\nfaults = 24\np_hi = 0.05\n"
           "[axes]\nbudget = 2000\n";
  };
  struct row {
    std::string text;
    std::size_t line;
    std::string field;
  };
  const row rows[] = {
      {experiment("shards = 4294967297\n", ""), 4, "shards"},
      {scenario("shards = 4294967298\n"), 4, "shards"},
      {experiment("", "window = 4294967296\n"), 11, "window"},
  };
  for (const row& r : rows) {
    const auto errors = parse_errors(r.text);
    EXPECT_TRUE(has_error(errors, r.line, r.field)) << r.text;
    if (errors.empty()) continue;
    EXPECT_NE(errors.front().message.find("overflows the 32-bit unsigned integer range"),
              std::string::npos)
        << errors.front().render();
  }
  // 2^32 - 1 itself still parses: the shard plan caps it at the budget.
  const mc::sweep_spec top = parse_ok(experiment("shards = 4294967295\n", "window = 4294967295\n"));
  const auto& m = std::get<mc::experiment_manifest>(top.manifest);
  EXPECT_EQ(m.shards, 50000u);
  EXPECT_EQ(m.window, 4294967295u);
  EXPECT_EQ(m.window_count(), 1u);
}

TEST(SweepSpec, RetiredLegacyEngineIsAPositionedDiagnostic) {
  // Every retired engine name is refused at its key, saying what replaces it.
  const std::pair<const char*, const char*> retired[] = {
      {"legacy", "the 'legacy' engine was retired; 'exact' gives the same results bit for bit"},
      {"fast",
       "the 'fast' engine was retired; 'fast-simd' samples the same distribution with "
       "different per-seed values, and 'exact' is the bit-exact reference"},
  };
  for (const auto& [name, message] : retired) {
    const auto errors = parse_errors(
        "[sweep]\nkind = experiment\n"
        "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.01\nq = 0.02\n"
        "[experiment]\nuniverse = u\nsamples = 1000\nengine = " +
        std::string(name) + "\n");
    ASSERT_TRUE(has_error(errors, 11, "engine")) << name;
    EXPECT_EQ(errors.front().render(), std::string("test.spec:11: engine: ") + message);
  }
}

TEST(SweepSpec, KeyLocalDiagnosticsPointAtTheKey) {
  // A value that its key alone makes wrong is reported at that key's line
  // and field, never at its section's header.  Every key sits below its
  // header here.
  const std::string sweep = "[sweep]\nkind = scenario\nseed = 3\n";  // lines 1-3
  const std::string universe =
      "[universe u]\ngenerator = homogeneous\nfaults = 4\np = 0.1\nq = 0.1\n";  // 5 lines
  const std::string axes = "[axes]\nrho = 0\nbudget = 10\n";                    // 3 lines
  const auto refine = [&](const std::string& key_line) {
    // [refine] at line 12, max_budget at 13, the key at 14.
    return sweep + universe + axes + "[refine]\nmax_budget = 0\n" + key_line + "\n";
  };
  const auto experiment = [](const std::string& lines) {
    // [experiment] at line 8, samples at 9, the key at 10.
    return "[sweep]\nkind = experiment\n"
           "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.01\nq = 0.02\n"
           "[experiment]\nsamples = 1000\n" +
           lines;
  };
  struct row {
    std::string text;
    std::size_t line;
    std::string field;
  };
  const row rows[] = {
      {"[sweep]\nkind = scenario\nseed = 3\nrho_model = gaussian\n" + universe + axes, 4,
       "rho_model"},
      {experiment("engine = warp\nuniverse = u\n"), 10, "engine"},
      {experiment("universe = nope\n"), 10, "universe"},
      {experiment("ci_level = 1.5\nuniverse = u\n"), 10, "ci_level"},
      {refine("metric = sd_theta2"), 14, "metric"},
      {refine("target_rel_halfwidth = 0"), 14, "target_rel_halfwidth"},
      {refine("z = -1"), 14, "z"},
      {refine("gradient_weight = -1"), 14, "gradient_weight"},
      {refine("mean_floor = 0"), 14, "mean_floor"},
      {refine("min_budget = 0"), 14, "min_budget"},
      {refine("max_growth = 0.5"), 14, "max_growth"},
      {refine("round_to = 0"), 14, "round_to"},
      {sweep + "[universe r]\ngenerator = raster\nfaults = 4\np_hi = 0.1\nprofile = weird\n" +
           axes,
       8, "profile"},
  };
  for (const row& r : rows) {
    const auto errors = parse_errors(r.text);
    std::string what = r.field + ":";
    for (const mc::spec_error& e : errors) what += " [" + e.render() + "]";
    EXPECT_EQ(errors.size(), 1u) << what;
    EXPECT_TRUE(has_error(errors, r.line, r.field)) << what;
  }
}

TEST(SweepSpec, OverridesTheKindDoesNotTakeAreRejected) {
  // spec_overrides promise `--spec f --flag v` equals editing the file, so a
  // flag whose key the kind refuses is an error too, at the [sweep] line,
  // naming the flag and the kind.
  const std::string demand =
      "[sweep]\nkind = demand\n[demand]\ndemands = 10\nwindow = 2\ntargets = 3\n";
  mc::spec_overrides engine;
  engine.engine = mc::sampling_engine::exact;
  mc::spec_overrides shards;
  shards.shards = 3;
  struct row {
    std::string text;
    mc::spec_overrides ov;
    std::string rendered;
  };
  const row rows[] = {
      {kScenarioSpec, engine,
       "test.spec:2: --engine: a scenario spec takes no --engine (experiment specs only)"},
      {demand, shards,
       "test.spec:1: --shards: a demand spec takes no --shards (scenario and experiment "
       "specs only)"},
      {demand, engine,
       "test.spec:1: --engine: a demand spec takes no --engine (experiment specs only)"},
  };
  for (const row& r : rows) {
    const mc::spec_parse_result result = mc::parse_sweep_spec(r.text, "test.spec", r.ov);
    EXPECT_FALSE(result.spec.has_value()) << r.rendered;
    ASSERT_EQ(result.errors.size(), 1u) << r.rendered;
    EXPECT_EQ(result.errors.front().render(), r.rendered);
  }
  // The overrides each kind does take still apply.
  mc::spec_overrides ov;
  ov.seed = 4;
  ov.budget = 20;
  EXPECT_EQ(std::get<mc::demand_manifest>(parse_ok(demand, ov).manifest).demands, 20u);
}

TEST(SweepSpec, InfeasibleValuesArePositionedNotThrown) {
  // Mixture rho out of range -> the [axes] line, via enumerate_cells.
  const auto errors = parse_errors(
      "[sweep]\nkind = scenario\n"
      "[universe u]\ngenerator = homogeneous\nfaults = 4\np = 0.1\nq = 0.1\n"
      "[axes]\nrho = 1.5\nbudget = 10\n");
  EXPECT_TRUE(has_error(errors, 8, "axes"));
}

TEST(SweepSpec, InfeasibleMixtureRhoIsAnAxesDiagnostic) {
  // rho 0.6 at the default stress 1.8: rho*stress > 1, so no relaxed p keeps
  // the marginal of a p = 0.1 fault.  The spec is refused at resolution with
  // the axes diagnostic, not accepted and left to throw in every worker that
  // reaches the cell.
  const auto errors = parse_errors(
      "[sweep]\nkind = scenario\n"
      "[universe u]\ngenerator = homogeneous\nfaults = 4\np = 0.1\nq = 0.1\n"
      "[axes]\nrho = 0 0.6\nbudget = 10\n");
  ASSERT_TRUE(has_error(errors, 8, "axes"));
  EXPECT_NE(errors.front().message.find("infeasible axes"), std::string::npos)
      << errors.front().render();
  EXPECT_NE(errors.front().message.find("rho 0.6"), std::string::npos)
      << errors.front().render();
}

TEST(SweepSpec, StressIsValidatedAtItsOwnKey) {
  // A stress below 1, NaN or infinite is an error at the key's own line
  // under either model: not an `axes` diagnostic on the [axes] line blamed
  // on some rho (mixture), and not silently accepted (copula).
  const auto spec = [](const std::string& model, const std::string& stress) {
    return "[sweep]\nkind = scenario\nseed = 3\nstress = " + stress +  // line 4
           "\nrho_model = " + model +
           "\n[universe u]\ngenerator = homogeneous\nfaults = 4\np = 0.1\nq = 0.1\n"
           "[axes]\nrho = 0 0.25\nbudget = 10\n";
  };
  const std::pair<std::string, std::string> bad[] = {
      {"mixture", "0.5"}, {"mixture", "nan"}, {"mixture", "inf"}, {"copula", "0.5"}};
  for (const auto& [model, stress] : bad) {
    const auto errors = parse_errors(spec(model, stress));
    std::string what = model + " stress " + stress + ":";
    for (const mc::spec_error& e : errors) what += " [" + e.render() + "]";
    ASSERT_EQ(errors.size(), 1u) << what;
    EXPECT_TRUE(has_error(errors, 4, "stress")) << what;
    EXPECT_NE(errors.front().message.find("finite number >= 1"), std::string::npos) << what;
  }
  // A valid stress stays accepted under both models.
  for (const std::string model : {"mixture", "copula"}) {
    const mc::spec_parse_result ok = mc::parse_sweep_spec(spec(model, "1.8"), "test.spec");
    ASSERT_TRUE(ok.spec.has_value()) << model;
    EXPECT_EQ(std::get<mc::sweep_manifest>(ok.spec->manifest).axes.stress, 1.8) << model;
  }
}

TEST(SweepSpec, MissingSweepSectionIsSingleError) {
  const auto errors = parse_errors("x = 1\n");
  EXPECT_TRUE(has_error(errors, 1, "x"));  // key before any [section]
}

TEST(SweepSpec, KindSectionMismatchRejected) {
  const auto errors = parse_errors(
      "[sweep]\nkind = demand\n"
      "[demand]\ndemands = 10\nwindow = 2\ntargets = 3\n"
      "[axes]\nrho = 0\n");
  EXPECT_TRUE(has_error(errors, 7, "axes"));
}

// ---------------------------------------------------------------------------
// k-out-of-m and copula cells pinned against direct library calls
// ---------------------------------------------------------------------------

std::uint64_t cell_seed_replica(std::uint64_t grid_seed, std::size_t cell_index) {
  std::uint64_t state = grid_seed;
  const std::uint64_t mixed = stats::splitmix64_next(state);
  state = mixed ^ static_cast<std::uint64_t>(cell_index);
  return stats::splitmix64_next(state);
}

/// Brute-force k-out-of-m cell: draw `versions` masks per demand, count per
/// fault, ascending-index q accumulation (the same order as masked_q_sum /
/// the bit-sliced defeated set).
template <typename Sampler>
mc::experiment_accumulator brute_force_cell(const Sampler& sampler,
                                            const core::fault_universe& u,
                                            unsigned versions, unsigned votes,
                                            double omega, std::uint64_t samples,
                                            std::uint64_t seed) {
  const mc::shard_plan plan = mc::make_shard_plan(samples, 0);
  mc::experiment_accumulator acc;
  mc::run_shards(
      plan, seed, /*threads=*/1,
      [&](unsigned /*shard*/, std::uint64_t count, stats::rng& r) {
        mc::experiment_accumulator sa;
        std::vector<core::fault_mask> masks(versions, core::fault_mask(u.size()));
        for (std::uint64_t s = 0; s < count; ++s) {
          for (unsigned v = 0; v < versions; ++v) sampler.sample_mask(r, masks[v]);
          double t1 = 0.0;
          double shared = 0.0;
          bool defeated = false;
          for (std::size_t i = 0; i < u.size(); ++i) {
            unsigned hits = 0;
            for (unsigned v = 0; v < versions; ++v) hits += masks[v].test(i) ? 1 : 0;
            if (masks[0].test(i)) t1 += u.atoms()[i].q;
            if (hits >= votes) {
              shared += u.atoms()[i].q;
              defeated = true;
            }
          }
          sa.add(t1, omega * shared, masks[0].any(), defeated && omega > 0.0);
        }
        return sa;
      },
      [&acc](unsigned /*shard*/, mc::experiment_accumulator&& sa) { acc.merge(sa); });
  return acc;
}

TEST(SweepSpec, TwoOutOfThreeMixtureCellMatchesBruteForce) {
  const core::fault_universe u = core::make_safety_grade_universe(16, 0.0, 0.2, 0.7, 3);
  mc::scenario_axes axes;
  axes.universes.emplace_back("u", u);
  axes.correlations = {0.3};
  axes.overlaps = {0.8};
  axes.aliasing = {1};
  axes.adjudications = {core::architecture::two_out_of_three()};
  axes.budgets = {500};
  const mc::grid_result grid = mc::run_scenario_grid(axes, {.seed = 9});
  ASSERT_EQ(grid.cells.size(), 1u);
  const mc::scenario_cell_result& cell = grid.cells[0];
  EXPECT_EQ(cell.cell.versions, 3u);
  EXPECT_EQ(cell.cell.votes, 2u);

  const mc::common_cause_mixture sampler(u, 0.3, axes.stress);
  const mc::experiment_accumulator acc =
      brute_force_cell(sampler, u, 3, 2, 0.8, 500, cell_seed_replica(9, 0));
  EXPECT_TRUE(bits_equal(cell.mean_theta1, acc.theta1().mean()));
  EXPECT_TRUE(bits_equal(cell.mean_theta2, acc.theta2().mean()));
  EXPECT_EQ(cell.state.n2_positive, acc.state().n2_positive);
}

TEST(SweepSpec, PairMixtureCellsMatchBruteForceAtEveryLevel) {
  // Every cell shape the pair loop serves — the mixture, the copula at
  // negative and positive rho, and the {2,2} pair, 2-out-of-3 and a simplex
  // adjudication — at the scalar cap, the AVX2 cap and uncapped, against the
  // brute-force shard loop, full accumulator state bit for bit.  The budgets
  // give 1 shard (one live lane); 5 shards (a full AVX2 register plus one
  // lane of the second); 7 shards of 71 or 72 pairs; 9 shards (a full group
  // of eight plus one, with remainder pairs); and 256 shards, 32 of them one
  // pair larger.  Copula cells draw about 40x slower per pair and skip the
  // 350 and 20,000 budgets.
  struct model_grid {
    mc::correlation_model model;
    std::vector<double> rhos;
    std::vector<std::uint64_t> budgets;
  };
  const model_grid grids[] = {
      {mc::correlation_model::mixture, {0.25}, {64, 350, 500, 600, 20'000}},
      {mc::correlation_model::copula, {-0.5, 0.4}, {64, 500, 600}}};
  for (const model_grid& g : grids) {
    mc::scenario_axes axes;
    axes.universes.emplace_back("u40",
                                core::make_safety_grade_universe(40, 0.0, 0.05, 0.6, 11));
    axes.universes.emplace_back(
        "u65", core::make_many_small_faults_universe(65, 0.05, 0.3, 0.8, 0.2, 12));
    axes.rho_model = g.model;
    axes.correlations = g.rhos;
    axes.overlaps = {1.0, 0.0};
    axes.aliasing = {1, 3};
    axes.adjudications = {core::architecture::one_out_of_two(),
                          core::architecture::two_out_of_three(),
                          core::architecture::simplex()};
    axes.budgets = g.budgets;
    const std::vector<mc::scenario_cell> cells = mc::enumerate_cells(axes);
    ASSERT_EQ(cells.size(), 24 * g.rhos.size() * g.budgets.size());
    std::vector<mc::accumulator_state> want;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const mc::scenario_cell& c = cells[i];
      const core::fault_universe& base = axes.universes[c.universe_index].second;
      const core::fault_universe u =
          c.aliasing > 1 ? mc::split_into_mistakes(base, c.aliasing).effective_universe()
                         : base;
      const std::uint64_t seed = cell_seed_replica(33, i);
      want.push_back(
          g.model == mc::correlation_model::mixture
              ? brute_force_cell(mc::common_cause_mixture(u, c.rho, axes.stress), u,
                                 c.versions, c.votes, c.omega, c.samples, seed)
                    .state()
              : brute_force_cell(mc::gaussian_copula_sampler(u, c.rho), u, c.versions,
                                 c.votes, c.omega, c.samples, seed)
                    .state());
    }
    const std::optional<core::simd_level> caps[] = {core::simd_level::scalar,
                                                    core::simd_level::avx2, std::nullopt};
    for (const std::optional<core::simd_level> cap : caps) {
      if (cap) core::set_simd_level_cap(*cap);
      const mc::grid_result grid = mc::run_scenario_grid(axes, {.seed = 33});
      core::clear_simd_level_cap();
      ASSERT_EQ(grid.cells.size(), cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const mc::scenario_cell& c = cells[i];
        const mc::accumulator_state& got = grid.cells[i].state;
        const std::string what =
            std::string(cap ? core::simd_level_name(*cap) : "uncapped") + " " + c.universe +
            " rho=" + std::to_string(c.rho) + " omega=" + std::to_string(c.omega) +
            " aliasing=" + std::to_string(c.aliasing) + " " + std::to_string(c.votes) + "of" +
            std::to_string(c.versions) + " budget=" + std::to_string(c.samples);
        EXPECT_EQ(grid.cells[i].shards, mc::make_shard_plan(c.samples).shard_count) << what;
        EXPECT_EQ(got.samples, want[i].samples) << what;
        EXPECT_TRUE(moments_bits_equal(got.theta1, want[i].theta1)) << what;
        EXPECT_TRUE(moments_bits_equal(got.theta2, want[i].theta2)) << what;
        EXPECT_EQ(got.n1_positive, want[i].n1_positive) << what;
        EXPECT_EQ(got.n2_positive, want[i].n2_positive) << what;
        EXPECT_EQ(got.n1_zero_pfd, want[i].n1_zero_pfd) << what;
        EXPECT_EQ(got.n2_zero_pfd, want[i].n2_zero_pfd) << what;
      }
    }
  }
}

TEST(SweepSpec, CopulaPairCellMatchesBruteForce) {
  const core::fault_universe u = core::make_safety_grade_universe(24, 0.0, 0.1, 0.5, 8);
  mc::scenario_axes axes;
  axes.universes.emplace_back("u", u);
  axes.rho_model = mc::correlation_model::copula;
  axes.correlations = {-0.5};
  axes.overlaps = {1.0};
  axes.aliasing = {1};
  axes.budgets = {400};
  const mc::grid_result grid = mc::run_scenario_grid(axes, {.seed = 21});
  ASSERT_EQ(grid.cells.size(), 1u);
  const mc::scenario_cell_result& cell = grid.cells[0];

  const mc::gaussian_copula_sampler sampler(u, -0.5);
  const mc::experiment_accumulator acc =
      brute_force_cell(sampler, u, 2, 2, 1.0, 400, cell_seed_replica(21, 0));
  EXPECT_TRUE(bits_equal(cell.mean_theta1, acc.theta1().mean()));
  EXPECT_TRUE(bits_equal(cell.mean_theta2, acc.theta2().mean()));
}

TEST(SweepSpec, CopulaRhoLeavesMeanTheta2Unchanged) {
  // The copula correlates faults WITHIN a version; the two channels are still
  // drawn independently, so E[theta2] = sum p_i^2 q_i at every rho: negative
  // rho is not forced diversity between the channels.  Both cells' means
  // agree with each other and with that closed form within their 99% CIs.
  const core::fault_universe u = core::make_many_small_faults_universe(
      64, 0.05, 0.2, 0.8, 0.2, 4);
  mc::scenario_axes axes;
  axes.universes.emplace_back("u", u);
  axes.rho_model = mc::correlation_model::copula;
  axes.correlations = {-0.8, 0.0};
  axes.overlaps = {1.0};
  axes.aliasing = {1};
  axes.budgets = {20'000};
  const mc::grid_result grid = mc::run_scenario_grid(axes, {.seed = 5});
  ASSERT_EQ(grid.cells.size(), 2u);
  const double expected = core::pair_moments(u).mean;
  const auto half_width = [](const mc::scenario_cell_result& c) {
    const double sd = stats::running_moments::from_state(c.state.theta2).stddev();
    return 2.5758293035489004 * sd / std::sqrt(static_cast<double>(c.cell.samples));
  };
  const mc::scenario_cell_result& anti = grid.cells[0];
  const mc::scenario_cell_result& indep = grid.cells[1];
  EXPECT_LE(std::fabs(anti.mean_theta2 - indep.mean_theta2),
            half_width(anti) + half_width(indep));
  EXPECT_NEAR(anti.mean_theta2, expected, half_width(anti));
  EXPECT_NEAR(indep.mean_theta2, expected, half_width(indep));
  // Marginals are exact in both cells: theta1 agrees to Monte-Carlo noise.
  EXPECT_NEAR(grid.cells[0].mean_theta1, grid.cells[1].mean_theta1, 5e-3);
}

// ---------------------------------------------------------------------------
// Raster demand-profile universes pinned against direct library calls
// ---------------------------------------------------------------------------

TEST(SweepSpec, RasterUniverseMatchesDirectRegionCalls) {
  mc::raster_universe_params prm;
  prm.faults = 8;
  prm.p_lo = 0.01;
  prm.p_hi = 0.1;
  prm.q_total = 0.9;
  prm.seed = 42;
  prm.cols = 32;
  prm.rows = 32;
  const core::fault_universe u = mc::make_raster_universe(prm);
  ASSERT_EQ(u.size(), 8u);

  // Reconstruct the documented shape stream with direct demand/* calls.
  const demand::box domain = demand::box::unit(2);
  std::uint64_t state = 42;
  auto unit = [&state]() {
    return static_cast<double>(stats::splitmix64_next(state) >> 11) * 0x1.0p-53;
  };
  std::vector<double> p;
  std::vector<double> raw_q;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t kind = stats::splitmix64_next(state) % 4;
    demand::region_ptr shape;
    if (kind == 0) {
      const double cx = 0.1 + 0.8 * unit();
      const double cy = 0.1 + 0.8 * unit();
      const double hx = 0.02 + 0.18 * unit();
      const double hy = 0.02 + 0.18 * unit();
      shape = demand::make_box_region(
          demand::box({std::max(0.0, cx - hx), std::max(0.0, cy - hy)},
                      {std::min(1.0, cx + hx), std::min(1.0, cy + hy)}));
    } else if (kind == 1) {
      const double cx = 0.1 + 0.8 * unit();
      const double cy = 0.1 + 0.8 * unit();
      const double rx = 0.02 + 0.18 * unit();
      const double ry = 0.02 + 0.18 * unit();
      shape = demand::make_ellipsoid_region({cx, cy}, {rx, ry});
    } else if (kind == 2) {
      const std::size_t seeds = 2 + (stats::splitmix64_next(state) % 4);
      std::vector<demand::point> pts;
      for (std::size_t s = 0; s < seeds; ++s) {
        const double x = unit();
        const double y = unit();
        pts.push_back({x, y});
      }
      const double radius = 0.02 + 0.08 * unit();
      shape = demand::make_point_array_region(std::move(pts), radius);
    } else {
      const std::size_t axis = stats::splitmix64_next(state) % 2;
      const double period = 0.1 + 0.4 * unit();
      const double width = period * (0.2 + 0.6 * unit());
      const double phase = period * unit();
      shape = demand::make_stripe_region(2, axis, period, width, phase);
    }
    raw_q.push_back(
        demand::raster_region::rasterize(*shape, domain, 32, 32).uniform_measure());
    p.push_back(0.01 + (0.1 - 0.01) * unit());
  }
  double q_sum = 0.0;
  for (const double q : raw_q) q_sum += q;
  ASSERT_GT(q_sum, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(bits_equal(u.atoms()[i].p, p[i])) << i;
    EXPECT_TRUE(bits_equal(u.atoms()[i].q, raw_q[i] * 0.9 / q_sum)) << i;
  }
}

TEST(SweepSpec, RasterGaussianProfileReweightsMeasures) {
  mc::raster_universe_params prm;
  prm.faults = 6;
  prm.p_lo = 0.01;
  prm.p_hi = 0.1;
  prm.q_total = 0.5;
  prm.seed = 7;
  prm.cols = 24;
  prm.rows = 24;
  const core::fault_universe uniform_u = mc::make_raster_universe(prm);
  prm.profile = "gaussian";
  prm.sigma = 0.2;
  const core::fault_universe gauss_u = mc::make_raster_universe(prm);
  // Same seeded shapes, same p stream; only the q weighting changes.
  double delta = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(bits_equal(uniform_u.atoms()[i].p, gauss_u.atoms()[i].p)) << i;
    delta += std::abs(uniform_u.atoms()[i].q - gauss_u.atoms()[i].q);
  }
  EXPECT_GT(delta, 0.0);
  // And a raster spec parses end to end.
  const std::string text =
      "[sweep]\nkind = scenario\nseed = 1\n"
      "[universe r]\ngenerator = raster\nfaults = 6\np_lo = 0.01\np_hi = 0.1\n"
      "q_total = 0.5\ngen_seed = 7\ncols = 24\nrows = 24\nprofile = gaussian\n"
      "sigma = 0.2\n"
      "[axes]\nrho = 0\nbudget = 10\n";
  const mc::sweep_spec spec = parse_ok(text);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  ASSERT_EQ(m.axes.universes.size(), 1u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(
        bits_equal(m.axes.universes[0].second.atoms()[i].q, gauss_u.atoms()[i].q));
  }
}

// ---------------------------------------------------------------------------
// Manifest codec: append-only extension, default-compatible
// ---------------------------------------------------------------------------

mc::sweep_manifest small_manifest() {
  mc::scenario_axes axes;
  axes.universes.emplace_back("u", core::make_homogeneous_universe(8, 0.05, 0.01));
  axes.correlations = {0.0};
  axes.overlaps = {1.0};
  axes.aliasing = {1};
  axes.budgets = {100};
  mc::sweep_manifest m;
  m.axes = axes;
  m.seed = 4;
  m.cell_count = mc::enumerate_cells(axes).size();
  return m;
}

TEST(SweepSpec, DefaultAxesWriteNoExtensionBlock) {
  const mc::sweep_manifest base = small_manifest();
  mc::sweep_manifest ext = base;
  ext.axes.rho_model = mc::correlation_model::copula;
  // The extension block is appended ONLY for non-default axes: default
  // manifests stay byte-identical to every earlier release.
  EXPECT_GT(mc::encode_manifest(ext).size(), mc::encode_manifest(base).size());
  EXPECT_NE(mc::manifest_fingerprint(ext), mc::manifest_fingerprint(base));

  // Explicitly-spelled defaults are the same bytes as implicit defaults.
  mc::sweep_manifest spelled = base;
  spelled.axes.rho_model = mc::correlation_model::mixture;
  spelled.axes.adjudications = {core::architecture::one_out_of_two()};
  spelled.axes.cell_budgets.clear();
  EXPECT_EQ(mc::encode_manifest(spelled), mc::encode_manifest(base));
}

TEST(SweepSpec, ExtendedAxesRoundTripThroughCodec) {
  mc::sweep_manifest m = small_manifest();
  m.axes.rho_model = mc::correlation_model::copula;
  m.axes.correlations = {-0.25, 0.5};
  m.axes.adjudications = {core::architecture::one_out_of_two(),
                          core::architecture::two_out_of_three()};
  m.cell_count = mc::enumerate_cells(m.axes).size();
  const mc::sweep_manifest back = mc::decode_manifest(mc::encode_manifest(m));
  EXPECT_EQ(back.axes.rho_model, mc::correlation_model::copula);
  ASSERT_EQ(back.axes.adjudications.size(), 2u);
  EXPECT_EQ(back.axes.adjudications[1].versions, 3u);
  EXPECT_EQ(back.axes.adjudications[1].votes_to_defeat, 2u);
  EXPECT_EQ(mc::manifest_fingerprint(back), mc::manifest_fingerprint(m));
}

TEST(SweepSpec, CellBudgetOverrideResolvesPerCell) {
  mc::sweep_manifest m = small_manifest();
  m.axes.correlations = {0.0, 0.5};
  m.axes.cell_budgets = {200, 300};
  const auto cells = mc::enumerate_cells(m.axes);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].samples, 200u);
  EXPECT_EQ(cells[1].samples, 300u);
  m.cell_count = cells.size();
  const mc::sweep_manifest back = mc::decode_manifest(mc::encode_manifest(m));
  EXPECT_EQ(back.axes.cell_budgets, m.axes.cell_budgets);
  EXPECT_EQ(mc::manifest_fingerprint(back), mc::manifest_fingerprint(m));

  // Wrong-size override is rejected loudly.
  m.axes.cell_budgets = {200};
  EXPECT_THROW(mc::enumerate_cells(m.axes), std::invalid_argument);
}

TEST(SweepSpec, CellStateRoundTripsNonDefaultAdjudication) {
  mc::scenario_cell_result r;
  r.cell = {0, "u", 0.1, 0.9, 2, 3, 2, 1234};
  r.seed = 99;
  r.shards = 4;
  r.mean_theta1 = 1e-4;
  r.mean_theta2 = 2e-6;
  mc::cell_state c;
  c.fingerprint = 0xabcdef;
  c.cell_index = 7;
  c.result = r;
  const mc::cell_state back = mc::decode_cell_state(mc::encode_cell_state(c));
  EXPECT_EQ(back.result.cell.versions, 3u);
  EXPECT_EQ(back.result.cell.votes, 2u);
  EXPECT_EQ(back.result.cell.samples, 1234u);
  EXPECT_TRUE(bits_equal(back.result.mean_theta2, r.mean_theta2));
}

// ---------------------------------------------------------------------------
// Adaptive refinement: pure, positioned, deterministic
// ---------------------------------------------------------------------------

constexpr const char* kCsvHeader =
    "universe,rho,omega,aliasing,samples,seed,shards,mean_theta1,mean_theta2,"
    "prob_n1_positive,prob_n2_positive,risk_ratio,p_max_true,p_max_naive,"
    "versions,votes,sd_theta1,sd_theta2";

mc::sweep_manifest two_cell_manifest() {
  mc::sweep_manifest m = small_manifest();
  m.axes.correlations = {0.0, 0.5};
  m.cell_count = mc::enumerate_cells(m.axes).size();
  return m;
}

TEST(SweepSpec, RefinementRuleGrowsWideCellsAndFloorsConvergedOnes) {
  const mc::sweep_manifest m = two_cell_manifest();
  mc::refine_rule rule;  // defaults: target 0.05, growth cap 8, floor 1000
  const std::string csv =
      std::string(kCsvHeader) + "\n" +
      "u,0,1,1,100,1,1,0,0.0001,0,0,0,0,0,2,2,0,0.001\n" +   // wide CI -> cap
      "u,0.5,1,1,100,1,1,0,0.0002,0,0,0,0,0,2,2,0,0\n";      // sd 0 -> floor
  const mc::refined_budgets out = mc::compute_refined_budgets(m, rule, csv, "t.csv");
  ASSERT_TRUE(out.errors.empty()) << out.errors.front().render();
  ASSERT_EQ(out.budgets.size(), 2u);
  EXPECT_EQ(out.budgets[0], 1000u);  // capped at 8 x 100, floored to min 1000
  EXPECT_EQ(out.budgets[1], 1000u);  // converged -> min_budget
  // Identical inputs -> identical outputs, every time.
  const mc::refined_budgets again = mc::compute_refined_budgets(m, rule, csv, "t.csv");
  EXPECT_EQ(again.budgets, out.budgets);
}

TEST(SweepSpec, RefinementFormulaMatchesSpec) {
  mc::sweep_manifest m = two_cell_manifest();
  m.axes.budgets = {100'000};
  m.cell_count = mc::enumerate_cells(m.axes).size();
  mc::refine_rule rule;
  rule.max_growth = 1000.0;  // effectively uncapped for this check
  rule.round_to = 1;
  rule.min_budget = 1;
  const double sd = 0.001;
  const double mean = 0.0001;
  const std::string csv =
      std::string(kCsvHeader) + "\n" +
      "u,0,1,1,100000,1,1,0,0.0001,0,0,0,0,0,2,2,0,0.001\n" +
      "u,0.5,1,1,100000,1,1,0,0.0001,0,0,0,0,0,2,2,0,0.001\n";
  const mc::refined_budgets out = mc::compute_refined_budgets(m, rule, csv, "t.csv");
  ASSERT_TRUE(out.errors.empty()) << out.errors.front().render();
  const double n = 100'000.0;
  const double rel = (rule.z * sd / std::sqrt(n)) / mean;
  // Equal metrics -> zero gradient on the only multi-valued axis.
  const double raw = n * (rel / rule.target_rel_halfwidth) * (rel / rule.target_rel_halfwidth);
  const auto expected = static_cast<std::uint64_t>(std::ceil(raw));
  EXPECT_EQ(out.budgets[0], expected);
  EXPECT_EQ(out.budgets[1], expected);
}

TEST(SweepSpec, RefinementRejectsMismatchedTables) {
  const mc::sweep_manifest m = two_cell_manifest();
  const mc::refine_rule rule;
  // Row count disagrees with the grid.
  const std::string one_row =
      std::string(kCsvHeader) + "\nu,0,1,1,100,1,1,0,1,0,0,0,0,0,2,2,0,1\n";
  EXPECT_FALSE(mc::compute_refined_budgets(m, rule, one_row, "t.csv").errors.empty());
  // Samples column disagrees with the spec's budget (stale table).
  const std::string stale =
      std::string(kCsvHeader) + "\n" +
      "u,0,1,1,100,1,1,0,1,0,0,0,0,0,2,2,0,1\n" +
      "u,0.5,1,1,999,1,1,0,1,0,0,0,0,0,2,2,0,1\n";
  const mc::refined_budgets out = mc::compute_refined_budgets(m, rule, stale, "t.csv");
  ASSERT_FALSE(out.errors.empty());
  EXPECT_EQ(out.errors.front().line, 3u);
  EXPECT_EQ(out.errors.front().field, "samples");
  // A multi-valued budget axis cannot be refined (grid shape would change).
  mc::sweep_manifest multi = m;
  multi.axes.budgets = {100, 200};
  multi.cell_count = mc::enumerate_cells(multi.axes).size();
  EXPECT_FALSE(mc::compute_refined_budgets(multi, rule, one_row, "t.csv").errors.empty());
}

TEST(SweepSpec, RefinedSpecRunsWithExactBudgets) {
  // The full loop in-process: parse -> run -> csv -> refine -> reparse.
  const std::string round1 =
      "[sweep]\nkind = scenario\nseed = 11\n"
      "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.1\nq = 0.05\n"
      "[axes]\nrho = 0 0.4\nomega = 1\naliasing = 1\nbudget = 200\n"
      "[refine]\nmin_budget = 300\nround_to = 100\nmax_growth = 4\n";
  const mc::sweep_spec spec = parse_ok(round1);
  EXPECT_TRUE(spec.has_refine);
  EXPECT_EQ(spec.refine.min_budget, 300u);
  const auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  const mc::grid_result grid = mc::run_scenario_grid(m.axes, m.config());
  const mc::refined_budgets refined =
      mc::compute_refined_budgets(m, spec.refine, grid.to_csv(), "merged.csv");
  ASSERT_TRUE(refined.errors.empty()) << refined.errors.front().render();
  ASSERT_EQ(refined.budgets.size(), 2u);
  for (const std::uint64_t b : refined.budgets) {
    EXPECT_GE(b, 300u);
    EXPECT_LE(b, 800u);  // 4 x 200
    EXPECT_EQ(b % 100, 0u);
  }
  // Emit round 2, reparse, and check the budgets landed cell-for-cell.
  mc::sweep_spec round2 = spec;
  std::get<mc::sweep_manifest>(round2.manifest).axes.cell_budgets = refined.budgets;
  const mc::sweep_spec again = parse_ok(mc::write_sweep_spec(round2));
  const auto& m2 = std::get<mc::sweep_manifest>(again.manifest);
  const auto cells = mc::enumerate_cells(m2.axes);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].samples, refined.budgets[0]);
  EXPECT_EQ(cells[1].samples, refined.budgets[1]);
  EXPECT_TRUE(again.has_refine);  // the rule rides along for round 3
}

}  // namespace
