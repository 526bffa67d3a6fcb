// mc::manifest_fields — the one declaration of each manifest kind's
// fields.  Pins the manifest identity of the six shipped specs (which are
// also the six reldiv_sweep presets) by value, and walks the declarations:
// spec -> manifest -> wire -> manifest -> spec is the identity, a row moves
// the fingerprint exactly when it is on the wire, and every default the
// reader applies is the member's initializer.
#include "mc/manifest_fields.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/generators.hpp"
#include "mc/distributed.hpp"
#include "mc/run_dir.hpp"
#include "mc/spec.hpp"
#include "stats/wire.hpp"

namespace mc = reldiv::mc;
namespace stats = reldiv::stats;

namespace {

using manifest_variant = mc::run_handle::manifest_variant;

std::string read_spec_file(const std::string& name) {
  std::ifstream in(std::string(RELDIV_SPEC_DIR) + "/" + name + ".spec", std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

mc::sweep_spec parse_ok(const std::string& text, const std::string& file) {
  mc::spec_parse_result r = mc::parse_sweep_spec(text, file);
  for (const mc::spec_error& e : r.errors) ADD_FAILURE() << e.render();
  EXPECT_TRUE(r.spec.has_value()) << file;
  return r.spec ? std::move(*r.spec) : mc::sweep_spec{};
}

/// The manifest.state bytes of a manifest of any kind.
std::string state_blob(const manifest_variant& m) {
  if (const auto* s = std::get_if<mc::sweep_manifest>(&m)) return mc::encode_manifest(*s);
  if (const auto* d = std::get_if<mc::demand_manifest>(&m)) return mc::encode_demand_manifest(*d);
  return mc::encode_experiment_manifest(std::get<mc::experiment_manifest>(m));
}

struct shipped_spec {
  const char* name;
  std::uint64_t fingerprint;
  std::uint64_t state_hash;     ///< stats::fnv1a64 of the manifest.state bytes
  std::uint64_t describe_hash;  ///< stats::fnv1a64 of describe_manifest_json
};

constexpr shipped_spec kShipped[] = {
    {"scenario_ci", 18314158121435230918ULL, 0x979de6c3c0abb862ULL, 0x17dfaf454fca5fabULL},
    {"scenario_smoke", 7767753544111586926ULL, 0xd3e788ea9787dc69ULL, 0xcd45b1b4bae45683ULL},
    {"experiment_ci", 12232279837977070369ULL, 0xf49760fe21b49804ULL, 0xde078e5a1deb4d98ULL},
    {"experiment_smoke", 18234101559239497930ULL, 0x876e126c224a2303ULL,
     0x33b1da552e1cc179ULL},
    {"demand_ci", 18143038926185867350ULL, 0x950b0d1cee24d33bULL, 0x12ccb605ea8c2b4cULL},
    {"demand_smoke", 16565091509737702019ULL, 0x5c6a9ecc3f18fd2dULL, 0x25550b3f8b784c25ULL},
};

TEST(ManifestIdentity, ShippedSpecsKeepFingerprintStateAndDescribeBytes) {
  for (const shipped_spec& s : kShipped) {
    SCOPED_TRACE(s.name);
    const mc::sweep_spec spec = parse_ok(read_spec_file(s.name), s.name);
    EXPECT_EQ(mc::job_fingerprint(spec.manifest), s.fingerprint);
    EXPECT_EQ(stats::fnv1a64(state_blob(spec.manifest)), s.state_hash);
    EXPECT_EQ(stats::fnv1a64(mc::describe_manifest_json(spec.manifest)), s.describe_hash);
  }
}

TEST(ManifestIdentity, ShippedSpecsRoundTripThroughTheDescribePath) {
  // What `describe --out-spec` writes parses back to the run's fingerprint.
  for (const shipped_spec& s : kShipped) {
    SCOPED_TRACE(s.name);
    const mc::sweep_spec spec = parse_ok(read_spec_file(s.name), s.name);
    const mc::sweep_spec again =
        parse_ok(mc::write_sweep_spec(mc::spec_from_manifest(spec.manifest)), "described.spec");
    EXPECT_EQ(mc::job_fingerprint(again.manifest), s.fingerprint);
  }
}

// ---------------------------------------------------------------------------
// Walking the declarations
// ---------------------------------------------------------------------------

constexpr const char* kScenarioDefault =
    "[sweep]\nkind = scenario\nseed = 4\n"
    "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.05\nq = 0.01\n"
    "[axes]\nrho = 0 0.25\nbudget = 100\n"
    "[refine]\nz = 3\n";

/// A copula 2of3 grid with a per-cell budget list: the scenario payload
/// carries its axes-extension block.
constexpr const char* kScenarioExtended =
    "[sweep]\nkind = scenario\nseed = 4\nrho_model = copula\n"
    "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.05\nq = 0.01\n"
    "[axes]\nrho = 0 0.25\nadjudication = 2of3\nbudget = 100\n"
    "cell_budget = 100 200\n";

constexpr const char* kDemandCompact =
    "[sweep]\nkind = demand\nseed = 9\n[demand]\ndemands = 500\nwindow = 4\ntargets = 20\n";

constexpr const char* kDemandExplicit =
    "[sweep]\nkind = demand\nseed = 9\n"
    "[demand]\ndemands = 500\nwindow = 2\ntarget_pfd = 1e-05 0.0001 2e-3\n";

constexpr const char* kExperiment =
    "[sweep]\nkind = experiment\nseed = 5\nshards = 32\n"
    "[universe u]\ngenerator = homogeneous\nfaults = 8\np = 0.01\nq = 0.02\n"
    "[experiment]\nuniverse = u\nsamples = 9000\nengine = exact\nkeep_samples = true\n"
    "ci_level = 0.95\nwindow = 8\n";

template <class M>
using kind_of = mc::manifest_kind<std::remove_cvref_t<M>>;

TEST(ManifestFields, SpecManifestWireManifestSpecIsTheIdentity) {
  for (const char* text :
       {kScenarioDefault, kScenarioExtended, kDemandCompact, kDemandExplicit, kExperiment}) {
    SCOPED_TRACE(text);
    const mc::sweep_spec spec = parse_ok(text, "walk.spec");
    const std::string written = mc::write_sweep_spec(spec);
    mc::sweep_spec decoded = spec;
    std::visit(
        [&decoded](const auto& m) {
          decoded.manifest = kind_of<decltype(m)>::decode(kind_of<decltype(m)>::encode(m));
        },
        spec.manifest);
    EXPECT_EQ(mc::write_sweep_spec(decoded), written);
    EXPECT_EQ(mc::describe_manifest_json(decoded.manifest),
              mc::describe_manifest_json(spec.manifest));
    const mc::sweep_spec again = parse_ok(written, "written.spec");
    EXPECT_EQ(mc::job_fingerprint(again.manifest), mc::job_fingerprint(spec.manifest));
    EXPECT_EQ(mc::write_sweep_spec(again), written);
  }
  // The extended grid with its extension fields at their defaults is the
  // default grid byte for byte: no extension block, and one that decodes
  // back to those defaults.
  mc::sweep_manifest reset =
      std::get<mc::sweep_manifest>(parse_ok(kScenarioExtended, "walk.spec").manifest);
  reset.axes.rho_model = mc::correlation_model::mixture;
  reset.axes.adjudications = {reldiv::core::architecture::one_out_of_two()};
  reset.axes.cell_budgets.clear();
  const std::string base = state_blob(parse_ok(kScenarioDefault, "walk.spec").manifest);
  EXPECT_EQ(mc::encode_manifest(reset), base);
  EXPECT_GT(state_blob(parse_ok(kScenarioExtended, "walk.spec").manifest).size(), base.size());
  EXPECT_EQ(mc::encode_manifest(mc::decode_manifest(base)), base);
}

/// A value moved off what it was: every type a declaration uses.
template <class T>
void bump(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<T, mc::correlation_model>) {
    v = v == mc::correlation_model::copula ? mc::correlation_model::mixture
                                           : mc::correlation_model::copula;
  } else if constexpr (std::is_same_v<T, mc::sampling_engine>) {
    v = v == mc::sampling_engine::exact ? mc::sampling_engine::fast_simd
                                        : mc::sampling_engine::exact;
  } else if constexpr (std::is_floating_point_v<T>) {
    v *= 2;
  } else if constexpr (std::is_integral_v<T>) {
    v = v * 2 + 1;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = v == "risk_ratio" ? "mean_theta2" : "risk_ratio";
  } else if constexpr (std::is_same_v<T, reldiv::core::fault_universe>) {
    v = reldiv::core::make_homogeneous_universe(v.size() + 1, 0.01, 0.01);
  } else if constexpr (std::is_same_v<T, reldiv::core::architecture>) {
    v = reldiv::core::architecture::two_out_of_three();
  } else if constexpr (std::is_same_v<T, std::pair<std::string, reldiv::core::fault_universe>>) {
    v.first += "x";
  } else {
    v.emplace_back();
    bump(v.back());
  }
}

/// Bumps the `target`-th row a walk visits, and records it.
struct bump_row {
  std::size_t target = 0;
  std::size_t index = 0;
  mc::field row = {};
  template <class T>
  void operator()(const mc::field& f, T& value) {
    if (index++ != target) return;
    row = f;
    bump(value);
  }
};

/// Counts the rows a walk visits.
struct count_rows {
  std::size_t rows = 0;
  template <class T>
  void operator()(const mc::field&, const T&) {
    ++rows;
  }
};

TEST(ManifestFields, ARowMovesTheFingerprintExactlyWhenItIsOnTheWire) {
  for (const char* text : {kScenarioDefault, kScenarioExtended, kDemandExplicit, kExperiment}) {
    const mc::sweep_spec spec = parse_ok(text, "walk.spec");
    std::visit(
        [&](const auto& base) {
          count_rows count;
          mc::fields(count, base);
          EXPECT_GE(count.rows, 4u);
          for (std::size_t i = 0; i < count.rows; ++i) {
            auto m = base;
            bump_row bump{.target = i};
            mc::fields(bump, m);
            SCOPED_TRACE(std::string(bump.row.name));
            EXPECT_NE(bump.row.wire, mc::wire_group::none);
            EXPECT_NE(kind_of<decltype(m)>::fingerprint(m),
                      kind_of<decltype(m)>::fingerprint(base));
          }
        },
        spec.manifest);
  }
  // Spec-only rows: a [refine] key never moves the fingerprint; a compact
  // roster key does, through the target_pfd list it generates.
  for (const char* text : {kScenarioDefault, kDemandCompact}) {
    const mc::sweep_spec base = parse_ok(text, "walk.spec");
    count_rows count;
    mc::spec_fields(count, base);
    std::size_t applied = 0;
    for (std::size_t i = 0; i < count.rows; ++i) {
      mc::sweep_spec spec = base;
      bump_row bump{.target = i};
      mc::spec_fields(bump, spec);
      const bool applies = bump.row.section == (base.has_refine ? "refine" : "demand");
      if (!applies) continue;
      ++applied;
      SCOPED_TRACE(std::string(bump.row.key));
      EXPECT_EQ(bump.row.wire, mc::wire_group::none);
      const std::string written = mc::write_sweep_spec(spec);
      EXPECT_NE(written, mc::write_sweep_spec(base));
      const bool moved = mc::job_fingerprint(parse_ok(written, "bumped.spec").manifest) !=
                         mc::job_fingerprint(base.manifest);
      EXPECT_EQ(moved, bump.row.section == "demand") << written;
    }
    EXPECT_EQ(applied, base.has_refine ? 9u : 3u);  // the [refine] rule, the roster
  }
}

/// Each row's value as text, for comparing two manifests row by row.
struct row_values {
  std::vector<std::pair<std::string, std::string>> rows;
  template <class T>
  void operator()(const mc::field& f, const T& value) {
    rows.emplace_back(std::string(f.name.empty() ? f.key : f.name), text(value));
  }
  template <class T>
  static std::string text(const T& v) {
    if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
      return std::to_string(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      return std::to_string(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      return v;
    } else if constexpr (std::is_same_v<T, reldiv::core::architecture>) {
      return std::to_string(v.votes_to_defeat) + "of" + std::to_string(v.versions);
    } else if constexpr (std::is_same_v<T, reldiv::core::fault_universe>) {
      std::string out;
      for (const auto& atom : v.atoms()) out += text(atom.p) + "," + text(atom.q) + ";";
      return out;
    } else if constexpr (std::is_same_v<T, std::pair<std::string, reldiv::core::fault_universe>>) {
      return v.first + ":" + text(v.second);
    } else {
      std::string out;
      for (const auto& x : v) out += text(x) + " ";
      return out;
    }
  }
};

template <class M>
std::vector<std::pair<std::string, std::string>> rows_of(const M& m) {
  row_values values;
  mc::fields(values, m);
  return values.rows;
}

TEST(ManifestFields, EveryDefaultTheReaderAppliesIsTheMembersInitializer) {
  // Specs giving only the required keys: every other row reads as the
  // default-constructed manifest's member.  Excluded: rows a spec must give
  // (universes, samples, demands, window, target_pfd) and rows resolved from
  // others (cell_count; an experiment's shards and window).
  const auto expect_defaults = [](const auto& parsed, std::vector<std::string> given) {
    const auto got = rows_of(parsed);
    const auto want = rows_of(std::remove_cvref_t<decltype(parsed)>{});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::find(given.begin(), given.end(), got[i].first) != given.end()) continue;
      EXPECT_EQ(got[i], want[i]) << got[i].first;
    }
  };
  expect_defaults(std::get<mc::sweep_manifest>(
                      parse_ok("[sweep]\nkind = scenario\n[universe u]\ngenerator = "
                               "homogeneous\nfaults = 4\np = 0.1\nq = 0.1\n",
                               "min.spec")
                          .manifest),
                  {"universes", "cell_count"});
  expect_defaults(std::get<mc::demand_manifest>(
                      parse_ok("[sweep]\nkind = demand\n[demand]\ndemands = 5\nwindow = 1\n"
                               "target_pfd = 0.5\n",
                               "min.spec")
                          .manifest),
                  {"demands", "window", "target_pfd"});
  const mc::experiment_manifest e = std::get<mc::experiment_manifest>(
      parse_ok("[sweep]\nkind = experiment\n[universe u]\ngenerator = homogeneous\n"
               "faults = 4\np = 0.1\nq = 0.1\n[experiment]\nuniverse = u\nsamples = 1000\n",
               "min.spec")
          .manifest);
  expect_defaults(e, {"atoms", "samples", "shards", "window"});
  EXPECT_EQ(e.shards, mc::experiment_shard_count(mc::experiment_config{.samples = 1000}));
  EXPECT_EQ(e.window, e.shards);

  // Spec-only rows: an empty [refine] section and a roster that gives only
  // `targets` take the sweep_spec's own initializers.
  const auto spec_rows = [](const mc::sweep_spec& s) {
    row_values values;
    mc::spec_fields(values, s);
    return values.rows;
  };
  const mc::sweep_spec refine = parse_ok(
      "[sweep]\nkind = scenario\n[universe u]\ngenerator = homogeneous\nfaults = 4\n"
      "p = 0.1\nq = 0.1\n[refine]\n",
      "min.spec");
  const mc::sweep_spec roster = parse_ok(
      "[sweep]\nkind = demand\n[demand]\ndemands = 5\nwindow = 1\ntargets = 3\n", "min.spec");
  const auto want = spec_rows(mc::sweep_spec{});
  for (const auto& got : {spec_rows(refine), spec_rows(roster)}) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].first == "targets") continue;
      EXPECT_EQ(got[i], want[i]) << got[i].first;
    }
  }
}

// ---------------------------------------------------------------------------
// State records
// ---------------------------------------------------------------------------

/// Records the addresses of the first two rows a walk visits and whether
/// they are u64 rows on the main wire group.
struct leading_rows {
  const void* addresses[2] = {nullptr, nullptr};
  bool u64_main[2] = {false, false};
  std::size_t index = 0;
  template <class T>
  void operator()(const mc::field& f, T& value) {
    if (index < 2) {
      addresses[index] = &value;
      u64_main[index] = std::is_same_v<std::remove_const_t<T>, std::uint64_t> &&
                        f.wire == mc::wire_group::main;
    }
    ++index;
  }
};

template <class State>
void expect_identity_leads(State& s, const std::uint64_t& index) {
  leading_rows v;
  mc::fields(v, s);
  EXPECT_EQ(v.addresses[0], &s.fingerprint);
  EXPECT_EQ(v.addresses[1], &index);
  EXPECT_TRUE(v.u64_main[0] && v.u64_main[1]);
}

TEST(StateFields, EveryWindowPayloadLeadsWithFingerprintAndIndex) {
  // peek_cell_identity reads two u64s off the front of every cell and window
  // payload; the declarations must put exactly those rows there.
  mc::cell_state cell;
  expect_identity_leads(cell, cell.cell_index);
  mc::demand_window_state demand;
  expect_identity_leads(demand, demand.window_index);
  mc::experiment_window_state experiment;
  expect_identity_leads(experiment, experiment.window_index);
}

}  // namespace
