#pragma once
// mc::manifest_fields — the one declaration of each manifest kind's fields.
//
// Each kind lists its fields once, in `describe` order, as
// `v(field{...}, member)` calls in `fields(v, manifest)`.  A row gives the
// field's describe JSON key, spec section and key, wire group and value
// check; the member's C++ type fixes its encoding, and its default is the
// member's initializer in the manifest struct.  Everything else walks the
// list: the manifest.state codec and with it the fingerprint
// (run_dir.cpp); the spec key reads with their defaults and diagnostics,
// write_sweep_spec, spec_from_manifest and describe_manifest_json
// (spec.cpp).  A field enters the fingerprint exactly when it is on the
// wire.  The spec-only keys are declared beside sweep_spec (spec_fields).
//
// Wire layout.  The demand and experiment payloads lead with their job-kind
// tag (u32), so the three kinds never alias under the fingerprint hash, then
// hold their `main` fields in declared order.  The scenario payload keeps its
// original layout: no tag, the `main` fields, the `count` field, then — only
// when some `extension` field is off its default — a u32 version (1) and the
// `extension` fields, so a default grid's bytes equal every earlier
// release's.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "mc/campaign.hpp"
#include "mc/experiment.hpp"
#include "mc/run_dir.hpp"

namespace reldiv::mc {

/// Where a field sits in the manifest.state payload.
enum class wire_group : std::uint8_t {
  none,       ///< spec-only: not on the wire, outside the fingerprint
  main,       ///< the payload proper, in declared order
  count,      ///< after `main` (the scenario's derived cell count)
  extension,  ///< the scenario axes extension, written only off its defaults
};

/// One row of a declaration.
struct field {
  std::string_view name = {};     ///< describe JSON key (empty: not described)
  std::string_view section = {};  ///< spec section (empty: not in the spec)
  std::string_view key = {};      ///< spec key
  wire_group wire = wire_group::main;
  bool required = false;    ///< the spec must give the key
  bool omit_empty = false;  ///< spec and describe leave an empty list out
  /// Accepted spellings, space-separated: an enum's names in wire-value
  /// order, or the values a string key allows.
  std::string_view names = {};
  /// Range check of a numeric key: a value it refuses is a diagnostic at the
  /// key, "must be <must>, got '<value>'".
  bool (*valid)(double) = nullptr;
  std::string_view must = {};
};

/// A kind's identity beside its fields: its job kind, its `kind =` word and
/// own section in a spec, and its manifest.state codec.
template <class M>
struct manifest_kind;

template <>
struct manifest_kind<sweep_manifest> {
  static constexpr job_kind kind = job_kind::scenario_grid;
  static constexpr std::string_view spec_name = "scenario", section = "axes";
  static constexpr auto encode = &encode_manifest;
  static constexpr auto decode = &decode_manifest;
  static constexpr auto fingerprint = &manifest_fingerprint;
};

template <>
struct manifest_kind<demand_manifest> {
  static constexpr job_kind kind = job_kind::demand_campaign;
  static constexpr std::string_view spec_name = "demand", section = "demand";
  static constexpr auto encode = &encode_demand_manifest;
  static constexpr auto decode = &decode_demand_manifest;
  static constexpr auto fingerprint = &demand_manifest_fingerprint;
};

template <>
struct manifest_kind<experiment_manifest> {
  static constexpr job_kind kind = job_kind::experiment_shards;
  static constexpr std::string_view spec_name = "experiment", section = "experiment";
  static constexpr auto encode = &encode_experiment_manifest;
  static constexpr auto decode = &decode_experiment_manifest;
  static constexpr auto fingerprint = &experiment_manifest_fingerprint;
};

template <class M, class Kind>
concept manifest_of = std::same_as<std::remove_const_t<M>, Kind>;

/// Scenario grid.  `universes` is the spec's [universe NAME] sections.
template <class V, manifest_of<sweep_manifest> M>
void fields(V& v, M& m) {
  v(field{.name = "seed", .section = "sweep", .key = "seed"}, m.seed);
  v(field{.name = "shards", .section = "sweep", .key = "shards"}, m.shards);
  v(field{.name = "cell_count", .wire = wire_group::count}, m.cell_count);
  v(field{.name = "stress", .section = "sweep", .key = "stress",
          .valid = [](double x) { return std::isfinite(x) && x >= 1.0; },
          .must = "a finite number >= 1"},
    m.axes.stress);
  v(field{.name = "rho_model", .section = "sweep", .key = "rho_model",
          .wire = wire_group::extension, .names = "mixture copula"},
    m.axes.rho_model);
  v(field{.name = "universes", .section = "universe"}, m.axes.universes);
  v(field{.name = "correlations", .section = "axes", .key = "rho"}, m.axes.correlations);
  v(field{.name = "overlaps", .section = "axes", .key = "omega"}, m.axes.overlaps);
  v(field{.name = "aliasing", .section = "axes", .key = "aliasing"}, m.axes.aliasing);
  v(field{.name = "adjudications", .section = "axes", .key = "adjudication",
          .wire = wire_group::extension},
    m.axes.adjudications);
  v(field{.name = "budgets", .section = "axes", .key = "budget"}, m.axes.budgets);
  v(field{.name = "cell_budgets", .section = "axes", .key = "cell_budget",
          .wire = wire_group::extension, .omit_empty = true},
    m.axes.cell_budgets);
}

/// Demand campaign.  A spec may give `target_pfd` as the compact loguniform
/// roster instead.
template <class V, manifest_of<demand_manifest> M>
void fields(V& v, M& m) {
  v(field{.name = "seed", .section = "sweep", .key = "seed"}, m.seed);
  v(field{.name = "demands", .section = "demand", .key = "demands", .required = true},
    m.demands);
  v(field{.name = "window", .section = "demand", .key = "window", .required = true}, m.window);
  v(field{.name = "target_pfd", .section = "demand", .key = "target_pfd"}, m.target_pfd);
}

/// Experiment shard windows.  `universe` names one [universe NAME] section;
/// make_experiment_manifest resolves the 0 defaults of `shards` and `window`.
template <class V, manifest_of<experiment_manifest> M>
void fields(V& v, M& m) {
  v(field{.name = "seed", .section = "sweep", .key = "seed"}, m.seed);
  v(field{.name = "samples", .section = "experiment", .key = "samples", .required = true},
    m.samples);
  v(field{.name = "shards", .section = "sweep", .key = "shards"}, m.shards);
  v(field{.name = "engine", .section = "experiment", .key = "engine"}, m.engine);
  v(field{.name = "keep_samples", .section = "experiment", .key = "keep_samples"},
    m.keep_samples);
  v(field{.name = "ci_level", .section = "experiment", .key = "ci_level",
          .valid = [](double x) { return x > 0.0 && x < 1.0; }, .must = "in (0, 1)"},
    m.ci_level);
  v(field{.name = "window", .section = "experiment", .key = "window"}, m.window);
  v(field{.name = "atoms", .section = "experiment", .key = "universe", .required = true},
    m.universe);
}

}  // namespace reldiv::mc
