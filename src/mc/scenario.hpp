#pragma once
// mc::scenario_grid — declarative parameter-sweep driver on the campaign
// layer.  The paper's §6 sensitivity programme (and benches E12–E14) asks
// the same question over and over: take a fault universe, perturb one
// modelling assumption — correlated fault introduction (§6.1), partially
// overlapping failure regions (§6.2), many-to-one fault↔region aliasing
// (§6.3) — and measure what happens to the pair statistics.  Instead of a
// hand-written loop per study, a scenario_axes declares the sweep:
//
//   axes: universe generator × correlation ρ × region overlap ω ×
//         aliasing multiplicity × demand budget
//
// run_scenario_grid enumerates the cells (row-major in that axis order),
// fans them out over the shared worker pool (mc::run_jobs), and merges
// per-cell results in cell order.  Each cell runs its own deterministic
// sharded campaign from a seed derived purely from (grid seed, cell index),
// so the whole grid is bit-identical across thread counts.
//
// Checkpoint/resume: a cell's full empirical state is its
// mc::accumulator_state (the library's wire format, ROADMAP's multi-process
// substrate).  run_scenario_cells processes any [begin, end) cell window and
// appends to an existing grid_result, so a sweep interrupted at a cell
// boundary and resumed from its serialized cells equals the uninterrupted
// run exactly.  Results export as CSV and JSON for downstream tooling.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_universe.hpp"
#include "core/kofn.hpp"
#include "mc/experiment.hpp"

namespace reldiv::mc {

/// Correlation model behind the ρ axis.  `mixture` is the paper's
/// marginal-preserving common-cause mixture (ρ in [0,1)); `copula` is the
/// Gaussian-copula sampler, which also admits NEGATIVE ρ in (−1,0): its
/// shared latent factor flips sign on odd fault indices, so same-parity
/// faults co-occur more often than independent ones and mixed-parity faults
/// less often.  Both models correlate faults WITHIN one version; the channels
/// are always drawn independently, so E[θ2] = ω Σ p_i² q_i at every ρ —
/// negative ρ is not forced diversity between the channels.  The enum values
/// are wire values (append-only).
enum class correlation_model : std::uint32_t { mixture = 0, copula = 1 };

/// The sweep declaration.  Every axis must be non-empty; the default is a
/// single cell at the model's baseline assumptions (independent
/// introduction, fully shared regions, 1-to-1 fault↔region mapping, the
/// paper's 1-out-of-2 adjudication).
struct scenario_axes {
  /// Universe axis: (name, universe) pairs — the name keys the output rows.
  std::vector<std::pair<std::string, core::fault_universe>> universes;
  /// §6.1 axis: correlation ρ — mixture model in [0,1) under `stress`,
  /// copula model in (−1,1).  A mixture ρ that `stress` leaves no relaxed p
  /// for (ρ·min(stress·p, 1) > p for some fault) is refused by
  /// enumerate_cells.
  std::vector<double> correlations = {0.0};
  double stress = 1.8;  ///< p inflation factor of a stressed development
  correlation_model rho_model = correlation_model::mixture;
  /// §6.2 axis: uniform region-overlap coefficient ω in [0,1] (the fraction
  /// of each fault's coincidence mass the channels actually share).
  std::vector<double> overlaps = {1.0};
  /// §6.3 axis: distinct mistakes feeding each failure region (1 = the
  /// paper's 1-to-1 assumption).  Cells with multiplicity > 1 run the
  /// region-level effective universe and also record the naive per-mistake
  /// pmax an aliased assessor would read off.
  std::vector<std::size_t> aliasing = {1};
  /// Adjudication axis: the system is defeated when at least
  /// `votes_to_defeat` of `versions` channels share a fault (the paper's
  /// pair is {2,2}; 2-out-of-3 models TMR), with 1 <= votes_to_defeat <=
  /// versions <= 64.  θ1 stays the first channel's single-version pfd; θ2
  /// becomes ω · Σq over the defeated-fault set.
  std::vector<core::architecture> adjudications = {core::architecture::one_out_of_two()};
  /// Demand budget axis: version-pair samples per cell.
  std::vector<std::uint64_t> budgets = {100'000};
  /// Adaptive refinement override: when non-empty, `budgets` must hold
  /// exactly one (placeholder) value and this vector must hold one budget
  /// per enumerated cell, in cell order — cell i runs cell_budgets[i]
  /// samples instead of the budget-axis value.  This is how a refined
  /// round-N+1 sweep re-budgets individual cells while keeping the grid
  /// shape (and therefore cell indices and seeds) intact.
  std::vector<std::uint64_t> cell_budgets;
};

/// Resolved coordinates of one grid cell.
struct scenario_cell {
  std::size_t universe_index = 0;
  std::string universe;  ///< name from the axis declaration
  double rho = 0.0;
  double omega = 1.0;
  std::size_t aliasing = 1;
  unsigned versions = 2;  ///< adjudication: channel count
  unsigned votes = 2;     ///< adjudication: coincident faults that defeat it
  std::uint64_t samples = 0;
};

/// One executed cell: coordinates, the deterministic identity that produced
/// it (derived seed + shard layout), the checkpointable accumulator state,
/// and the derived headline statistics.
struct scenario_cell_result {
  scenario_cell cell;
  std::uint64_t seed = 0;      ///< cell campaign seed (pure function of grid
                               ///< seed and cell index)
  unsigned shards = 0;         ///< logical shard layout of the cell campaign
  accumulator_state state;     ///< full empirical state (wire format)

  double mean_theta1 = 0.0;
  double mean_theta2 = 0.0;
  double prob_n1_positive = 0.0;
  double prob_n2_positive = 0.0;
  double risk_ratio = 0.0;     ///< empirical eq. (10)
  double p_max_true = 0.0;     ///< region-level pmax of the cell universe
  double p_max_naive = 0.0;    ///< per-mistake pmax under aliasing (== true
                               ///< when aliasing == 1)
};

struct scenario_config {
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< workers for the cell fan-out; throughput only
  unsigned shards = 0;   ///< per-cell logical shards; 0 = budget-scaled default
};

struct grid_result {
  std::vector<scenario_cell_result> cells;  ///< row-major in axis order

  /// One row per cell; stable header; deterministic formatting (%.17g for
  /// doubles) so equal results serialize identically.
  [[nodiscard]] std::string to_csv() const;
  /// JSON array of cell objects under {"cells": [...]}.
  [[nodiscard]] std::string to_json() const;
};

/// Row-major enumeration of the axes (universe, ρ, ω, aliasing,
/// adjudication, budget); validates the axes, including that every mixture
/// (universe × aliasing × ρ) is constructible.  The index of a cell in this
/// vector is its identity for seeding and resume.  With the default
/// single-valued adjudication axis the enumeration (and thus every cell
/// index and seed) is exactly the historical five-axis order.
[[nodiscard]] std::vector<scenario_cell> enumerate_cells(const scenario_axes& axes);

/// Run one cell of the grid.  `cell` must be enumerate_cells(axes)[cell_index]
/// — the index (not the coordinates) seeds the cell campaign, so the result
/// is exactly the entry the full-grid run produces at that position.  This is
/// the job unit the multi-process driver (mc::distributed) hands to worker
/// processes.
[[nodiscard]] scenario_cell_result run_scenario_cell(const scenario_axes& axes,
                                                     const scenario_config& cfg,
                                                     const scenario_cell& cell,
                                                     std::size_t cell_index);

/// Run cells [cell_begin, cell_end) of the grid, appending to `out.cells`
/// (which must already hold exactly cell_begin results — the checkpointed
/// prefix).  Cells execute on the shared worker pool but merge in ascending
/// cell order, so resuming from a serialized prefix reproduces the
/// uninterrupted run bit-for-bit.
void run_scenario_cells(const scenario_axes& axes, const scenario_config& cfg,
                        std::size_t cell_begin, std::size_t cell_end, grid_result& out);

/// Run the whole grid.
[[nodiscard]] grid_result run_scenario_grid(const scenario_axes& axes,
                                            const scenario_config& cfg);

}  // namespace reldiv::mc
