#pragma once
// mc::sweep_spec — the declarative sweep-spec layer (ROADMAP item 1).
//
// A spec file is an operator-facing plain-text declaration of one sweep:
// INI-style `[section]` headers and `key = value` lines, `#` comments.
// parse_sweep_spec resolves it into the exact manifest types the
// distributed driver and service already run (`sweep_manifest` /
// `demand_manifest` / `experiment_manifest`), so a spec-launched run is
// byte-identical to one built in code — the manifest fingerprint is the
// only identity either path has.
//
// Keys.  Every manifest field's section, key, default and value check is
// declared once in mc/manifest_fields.hpp, and the spec-only keys (the
// [refine] rule, the compact demand roster) in spec_fields below; the
// reader, write_sweep_spec, spec_from_manifest and describe_manifest_json
// all walk those declarations.  An absent key takes the member's default.
// Sections:
//
//   [sweep]            kind = scenario|demand|experiment, then the kind's
//                      sweep keys: seed, shards, stress, rho_model
//   [universe NAME]    generator = safety_grade|many_small|random|dominant|
//                      homogeneous|explicit|raster + generator params
//   [axes]             rho / omega / aliasing / adjudication (MofN tokens,
//                      e.g. 2of2, 2of3) / budget lists; cell_budget =
//                      per-cell override list (written by `refine`)
//   [refine]           the adaptive refinement rule + knobs (scenario only;
//                      deliberately NOT part of the manifest fingerprint —
//                      identical axes must share result-cache entries)
//   [demand]           demands, window, and the roster: either the compact
//                      loguniform form (targets, pfd_lo, pfd_ratio) or an
//                      explicit target_pfd list
//   [experiment]       samples, engine, keep_samples, ci_level, window,
//                      universe = NAME
//
// Error contract (the PR 7 parse-robustness contract): parsing never
// throws.  Every malformed line, duplicate key, unknown section/key,
// overflowing integer (std::from_chars), or infeasible resolved value
// becomes a spec_error carrying an exact `file:line: field: message`
// position; the CLI prints them and exits 2.  A value one key alone makes
// wrong is reported at that key's line; checks across keys or overrides
// (infeasible axes, the roster's either/or, --budget against cell_budget)
// at the section's.
//
// Adaptive refinement: compute_refined_budgets re-budgets every cell of a
// scenario grid as a PURE function of the merged round-N CSV table (no
// wall-clock, no unordered iteration):
//
//   rel_i   = z * sd_theta2_i / (sqrt(n_i) * max(|mean_theta2_i|, mean_floor))
//   grad_i  = max over axis neighbours j of
//             |metric_i - metric_j| / max(|metric_i|, |metric_j|, mean_floor)
//   raw_i   = n_i * (rel_i / target_rel_halfwidth)^2 * (1 + gradient_weight * grad_i)
//   new_i   = round_to-multiple ceiling of
//             clamp(raw_i, min_budget, min(n_i * max_growth, max_budget))
//
// so budget flows to cells with wide confidence intervals or steep
// response gradients, and the emitted round-N+1 spec (same grid shape,
// `cell_budget` overrides) is byte-identical across thread counts.

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "mc/campaign.hpp"
#include "mc/experiment.hpp"
#include "mc/manifest_fields.hpp"
#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"

namespace reldiv::mc {

/// One diagnostic, positioned to the character: file, 1-based line, the
/// offending field (key, section, or CSV column), and what went wrong.
struct spec_error {
  std::string file;
  std::size_t line = 0;
  std::string field;
  std::string message;

  /// "file:line: field: message" (field omitted when empty).
  [[nodiscard]] std::string render() const;
};

/// A universe declaration as written in the spec — kept verbatim (generator
/// name + params in declaration order) so writers re-emit the compact
/// generator form instead of exploding atoms.
struct universe_decl {
  std::string name;
  std::string generator;
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t line = 0;  ///< section header line (0 for synthesized decls)
};

/// The adaptive refinement rule + knobs, declared in [refine] (spec_fields).
struct refine_rule {
  std::string metric = "mean_theta2";  ///< gradient metric: mean_theta2 | risk_ratio
  double target_rel_halfwidth = 0.05;  ///< CI convergence target
  double z = 2.5758293035489004;       ///< two-sided 99% normal quantile
  double gradient_weight = 1.0;        ///< steep-response boost factor
  double mean_floor = 1e-12;           ///< |mean| floor for relative widths
  std::uint64_t min_budget = 1000;     ///< floor for converged cells
  std::uint64_t max_budget = 0;        ///< absolute cap (0 = uncapped)
  double max_growth = 8.0;             ///< per-round growth cap (× old budget)
  std::uint64_t round_to = 1000;       ///< budgets round UP to this multiple
};

/// The resolved job plus everything needed to re-emit the spec.
struct sweep_spec {
  job_kind kind = job_kind::scenario_grid;
  std::variant<sweep_manifest, demand_manifest, experiment_manifest> manifest;
  std::vector<universe_decl> universes;  ///< declarations, writer-ready
  std::string experiment_universe;       ///< the [universe NAME] an experiment draws from
  /// Compact demand roster declaration (kind == demand_campaign, when the
  /// spec used the loguniform form): targets > 0 means (targets, pfd_lo,
  /// pfd_ratio) regenerates the manifest's target_pfd exactly, and the
  /// writer gives these keys in target_pfd's place.
  std::uint64_t roster_targets = 0;
  double roster_pfd_lo = 1e-6;
  double roster_pfd_ratio = 1000.0;
  bool has_refine = false;
  refine_rule refine;
};

/// The spec-only rows: keys no manifest holds, so off the wire and outside
/// the fingerprint (the compact roster enters it through the target_pfd it
/// generates, and the writer gives these keys in target_pfd's place).
template <class V, class Spec>
  requires std::same_as<std::remove_const_t<Spec>, sweep_spec>
void spec_fields(V& v, Spec& s) {
  const auto row = [&v](std::string_view section, std::string_view key, auto& member,
                        std::string_view must = {}, bool (*valid)(double) = nullptr) {
    v(field{.section = section, .key = key, .wire = wire_group::none, .valid = valid,
            .must = must},
      member);
  };
  constexpr auto positive = [](double x) { return x > 0.0; };
  v(field{.section = "refine", .key = "metric", .wire = wire_group::none,
          .names = "mean_theta2 risk_ratio"},
    s.refine.metric);
  row("refine", "target_rel_halfwidth", s.refine.target_rel_halfwidth, "> 0", positive);
  row("refine", "z", s.refine.z, "> 0", positive);
  row("refine", "gradient_weight", s.refine.gradient_weight, ">= 0",
      [](double x) { return x >= 0.0; });
  row("refine", "mean_floor", s.refine.mean_floor, "> 0", positive);
  row("refine", "min_budget", s.refine.min_budget, "> 0", positive);
  row("refine", "max_budget", s.refine.max_budget);
  row("refine", "max_growth", s.refine.max_growth, ">= 1", [](double x) { return x >= 1.0; });
  row("refine", "round_to", s.refine.round_to, "> 0", positive);
  row("demand", "targets", s.roster_targets);
  row("demand", "pfd_lo", s.roster_pfd_lo);
  row("demand", "pfd_ratio", s.roster_pfd_ratio);
}

/// CLI overrides applied BEFORE resolution, so `--spec f --seed N` equals
/// editing the file: each set field replaces the spec's value, and a field
/// the spec's kind does not take (engine for scenario and demand specs,
/// shards for demand specs) is a spec_error at the [sweep] line naming the
/// flag and the kind, as the key in the file would be.
struct spec_overrides {
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> budget;  ///< replaces the scenario budget axis
  std::optional<unsigned> shards;
  std::optional<sampling_engine> engine;
};

struct spec_parse_result {
  std::optional<sweep_spec> spec;  ///< engaged iff errors is empty
  std::vector<spec_error> errors;
};

/// Parse + resolve a spec file.  Never throws; every failure is a
/// positioned spec_error.  `filename` only labels diagnostics.
[[nodiscard]] spec_parse_result parse_sweep_spec(std::string_view text,
                                                 std::string_view filename,
                                                 const spec_overrides& overrides = {});

/// Canonical spec text for a resolved spec: parsing it back yields a
/// manifest with the SAME fingerprint (spec -> manifest -> spec round-trips
/// through the fingerprint unchanged).  Doubles emit as %.17g, which
/// std::from_chars recovers bit-exactly.  Keys follow the declared field
/// order within each section.
[[nodiscard]] std::string write_sweep_spec(const sweep_spec& spec);

/// Recover a launchable spec from a bare manifest (the `describe` path):
/// universes become explicit %.17g atom lists, demand rosters an explicit
/// target_pfd list.  Refinement knobs are not part of any manifest, so the
/// result carries no [refine] section.
[[nodiscard]] sweep_spec spec_from_manifest(
    const std::variant<sweep_manifest, demand_manifest, experiment_manifest>& manifest);

/// The run's manifest as %.17g-clean JSON: kind, fingerprint, then every
/// declared field with a JSON key, in declared order (atom-for-atom
/// universes included) — what `run_handle::describe()` and `reldiv_sweep
/// describe` print, and the only JSON rendering of a manifest.
[[nodiscard]] std::string describe_manifest_json(
    const std::variant<sweep_manifest, demand_manifest, experiment_manifest>& manifest);

struct refined_budgets {
  std::vector<std::uint64_t> budgets;  ///< per cell, engaged iff errors empty
  std::vector<spec_error> errors;
};

/// The deterministic refinement rule (header comment above): per-cell
/// round-N+1 budgets from the merged round-N CSV.  `table_name` labels
/// diagnostics.  Requires a single-valued budget axis (a multi-valued axis
/// would change the grid shape — and with it every cell seed).
[[nodiscard]] refined_budgets compute_refined_budgets(const sweep_manifest& manifest,
                                                      const refine_rule& rule,
                                                      std::string_view merged_csv,
                                                      std::string_view table_name);

/// Deterministic raster-universe construction (generator = raster): fault
/// i's failure-region q is the profile-weighted raster measure of a seeded
/// analytic region over the unit square, scaled so the q sum to q_total;
/// p_i is uniform over [p_lo, p_hi].  The shape stream is splitmix64
/// from `seed`: per fault, draw kind = next % 4 (0 box, 1 ellipsoid,
/// 2 point-array, 3 stripe), then the shape parameters — the exact
/// derivation lives in spec.cpp and is pinned by an equivalence test
/// against direct demand/raster + demand/region library calls.
struct raster_universe_params {
  std::size_t faults = 0;
  double p_lo = 0.0;
  double p_hi = 0.0;
  double q_total = 0.0;
  std::uint64_t seed = 0;
  std::size_t cols = 64;
  std::size_t rows = 64;
  std::string profile = "uniform";  ///< uniform | gaussian
  double sigma = 0.25;              ///< gaussian profile width
};

[[nodiscard]] core::fault_universe make_raster_universe(const raster_universe_params& p);

/// The loguniform demand roster (the historical CLI roster when pfd_lo =
/// 1e-6 and pfd_ratio = 1000, bit-for-bit).
[[nodiscard]] std::vector<double> make_loguniform_roster(std::uint64_t targets,
                                                         double pfd_lo, double pfd_ratio,
                                                         std::uint64_t seed);

}  // namespace reldiv::mc
