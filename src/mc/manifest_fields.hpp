#pragma once
// mc::manifest_fields — the one declaration of each manifest kind's fields,
// of each state record's, and of the merged tables' columns.
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
// The state records (cell and window files, the accumulator state nested in
// them, the demand tally, cached results) are declared the same way, rows in
// wire order, for the same codec; `columns` lists the merged tables' columns
// for mc/tables.hpp.
//
// Wire layout.  The demand and experiment payloads lead with their job-kind
// tag (u32), so the three kinds never alias under the fingerprint hash, then
// hold their `main` fields in declared order.  The scenario payload keeps its
// original layout: no tag, the `main` fields, the `count` field, then — only
// when some `extension` field is off its default — a u32 version (1) and the
// `extension` fields, so a default grid's bytes equal every earlier
// release's.  A scenario cell's adjudication pair is its extension, with no
// version tag.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

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

/// A declaration's record type, const or not.
template <class R, class Record>
concept record_of = std::same_as<std::remove_const_t<R>, Record>;

/// One [universe NAME] section of a scenario grid.
using named_universe = std::pair<std::string, core::fault_universe>;

/// Scenario grid.  `universes` is the spec's [universe NAME] sections.
template <class V, record_of<sweep_manifest> M>
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
template <class V, record_of<demand_manifest> M>
void fields(V& v, M& m) {
  v(field{.name = "seed", .section = "sweep", .key = "seed"}, m.seed);
  v(field{.name = "demands", .section = "demand", .key = "demands", .required = true},
    m.demands);
  v(field{.name = "window", .section = "demand", .key = "window", .required = true}, m.window);
  v(field{.name = "target_pfd", .section = "demand", .key = "target_pfd"}, m.target_pfd);
}

/// Experiment shard windows.  `universe` names one [universe NAME] section;
/// make_experiment_manifest resolves the 0 defaults of `shards` and `window`.
template <class V, record_of<experiment_manifest> M>
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

// State records.

template <class V, record_of<accumulator_state> S>
void fields(V& v, S& s) {
  v(field{}, s.samples);
  v(field{}, s.theta1);
  v(field{}, s.theta2);
  v(field{}, s.n1_positive);
  v(field{}, s.n2_positive);
  v(field{}, s.n1_zero_pfd);
  v(field{}, s.n2_zero_pfd);
  v(field{}, s.keeping_samples);
  v(field{}, s.theta1_samples);
  v(field{}, s.theta2_samples);
}

template <class V, record_of<demand_tally> T>
void fields(V& v, T& t) {
  v(field{}, t.demands);
  v(field{}, t.failures);
}

/// One scenario cell; its named rows, in order, are the grid table's columns.
template <class V, record_of<scenario_cell_result> R>
void fields(V& v, R& r) {
  v(field{}, r.cell.universe_index);
  v(field{.name = "universe"}, r.cell.universe);
  v(field{.name = "rho"}, r.cell.rho);
  v(field{.name = "omega"}, r.cell.omega);
  v(field{.name = "aliasing"}, r.cell.aliasing);
  v(field{.name = "samples"}, r.cell.samples);
  v(field{.name = "seed"}, r.seed);
  v(field{.name = "shards"}, r.shards);
  v(field{}, r.state);
  v(field{.name = "mean_theta1"}, r.mean_theta1);
  v(field{.name = "mean_theta2"}, r.mean_theta2);
  v(field{.name = "prob_n1_positive"}, r.prob_n1_positive);
  v(field{.name = "prob_n2_positive"}, r.prob_n2_positive);
  v(field{.name = "risk_ratio"}, r.risk_ratio);
  v(field{.name = "p_max_true"}, r.p_max_true);
  v(field{.name = "p_max_naive"}, r.p_max_naive);
  v(field{.name = "versions", .wire = wire_group::extension}, r.cell.versions);
  v(field{.name = "votes", .wire = wire_group::extension}, r.cell.votes);
}

template <class V, record_of<demand_window_result> R>
void fields(V& v, R& r) {
  v(field{}, r.target_begin);
  v(field{}, r.target_end);
  v(field{}, r.demands);
  v(field{}, r.failures);
}

template <class V, record_of<experiment_window_result> R>
void fields(V& v, R& r) {
  v(field{}, r.shard_begin);
  v(field{}, r.shard_end);
  v(field{}, r.shard_states);
}

/// A cell or window file: the fingerprint and index lead the payload (all
/// peek_cell_identity reads), then the result's rows.
template <class V, class S>
  requires record_of<S, cell_state> || record_of<S, demand_window_state> ||
           record_of<S, experiment_window_state>
void fields(V& v, S& s) {
  auto& [fingerprint, index, result] = s;
  v(field{}, fingerprint);
  v(field{}, index);
  fields(v, result);
}

template <class V, record_of<cached_result> C>
void fields(V& v, C& c) {
  v(field{}, c.kind);
  v(field{}, c.fingerprint);
  v(field{}, c.csv);
  v(field{}, c.json);
}

struct any_row {
  template <class T>
  void operator()(const field&, T&) const {}
};

/// A type declared above (a nested one is encoded as its rows, and is no
/// table column).
template <class R>
concept declared = requires(any_row& v, R& r) { fields(v, r); };

// Result tables: each column, declared once for CSV and JSON.

/// The grid table: a cell's named rows, then the spreads the refinement pass
/// turns into CI half-widths.
template <class V>
void columns(V& v, const scenario_cell_result& r) {
  fields(v, r);
  v(field{.name = "sd_theta1"}, stats::running_moments::from_state(r.state.theta1).stddev());
  v(field{.name = "sd_theta2"}, stats::running_moments::from_state(r.state.theta2).stddev());
}

/// The experiment table (render only: a merged result is not a state file).
template <class V>
void columns(V& v, const experiment_result& r) {
  v(field{.name = "samples"}, r.samples);
  v(field{.name = "shards"}, r.shards);
  v(field{.name = "mean_theta1"}, r.theta1.mean());
  v(field{.name = "sd_theta1"}, r.stddev_theta1());
  v(field{.name = "mean_theta2"}, r.theta2.mean());
  v(field{.name = "sd_theta2"}, r.stddev_theta2());
  v(field{.name = "n1_positive"}, r.n1_positive);
  v(field{.name = "n2_positive"}, r.n2_positive);
  v(field{.name = "n1_zero_pfd"}, r.n1_zero_pfd);
  v(field{.name = "n2_zero_pfd"}, r.n2_zero_pfd);
  v(field{.name = "risk_ratio"}, r.risk_ratio());
}

}  // namespace reldiv::mc
