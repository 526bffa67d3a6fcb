#include "mc/scenario.hpp"

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/simd_sampler.hpp"
#include "mc/aliasing.hpp"
#include "mc/campaign.hpp"
#include "mc/correlated.hpp"
#include "mc/shard_lanes.hpp"
#include "mc/shard_runner.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

namespace {

/// Cell campaign seed: a splitmix64 hash of (grid seed, cell index) — a pure
/// function of the grid identity, uncorrelated across cells, and unrelated
/// to any stream the cells themselves derive.
std::uint64_t cell_seed(std::uint64_t grid_seed, std::size_t cell_index) {
  std::uint64_t state = grid_seed;
  const std::uint64_t mixed_seed = stats::splitmix64_next(state);
  state = mixed_seed ^ static_cast<std::uint64_t>(cell_index);
  return stats::splitmix64_next(state);
}

/// Shortest round-trip spelling of a double, for diagnostics ("0.6" where
/// %.17g would print 0.59999999999999998).
std::string shortest(double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

scenario_cell_result run_cell(const scenario_axes& axes, const scenario_config& cfg,
                              const scenario_cell& cell, std::size_t cell_index) {
  scenario_cell_result out;
  out.cell = cell;
  out.seed = cell_seed(cfg.seed, cell_index);

  // §6.3 axis: under aliasing the trustworthy model is the region-level
  // effective universe; the naive per-mistake pmax is recorded so the sweep
  // quantifies what an assessor reading mistake-level data would claim.
  // Only aliased cells materialize a universe of their own — everything
  // else samples the axis universe in place.
  const core::fault_universe& base = axes.universes[cell.universe_index].second;
  std::optional<core::fault_universe> aliased;
  out.p_max_naive = base.p_max();
  if (cell.aliasing > 1) {
    const aliased_model model = split_into_mistakes(base, cell.aliasing);
    aliased.emplace(model.effective_universe());
    out.p_max_naive = model.naive_p_max();
  }
  const core::fault_universe& effective = aliased ? *aliased : base;
  out.p_max_true = effective.p_max();

  // Per-cell deterministic sharded campaign: per demand, draw `versions`
  // channel masks in index order from the shard's stream; θ1 = first
  // channel's pfd, θ2 = ω · Σq over faults shared by at least `votes`
  // channels.  Cells already fan out over the grid's worker pool, so the
  // cell's lane groups run on the calling thread — by the determinism
  // contract that changes throughput only, never the per-cell result.
  const shard_plan plan = make_shard_plan(cell.samples, cfg.shards);
  out.shards = plan.shard_count;
  const lane_fold fold{cell.versions, cell.votes, cell.omega, effective.q_array(),
                       core::active_simd_level()};
  experiment_accumulator acc;
  const auto merge = [&acc](unsigned /*shard*/, experiment_accumulator&& shard) {
    acc.merge(shard);
  };
  if (axes.rho_model == correlation_model::mixture) {
    // §6.1 axis: the marginal-preserving common-cause mixture (ρ = 0 is the
    // independent baseline on the same code path).
    run_sampler_lanes(common_cause_mixture(effective, cell.rho, axes.stress), plan, out.seed,
                      /*threads=*/1, fold, merge);
  } else {
    run_sampler_lanes(gaussian_copula_sampler(effective, cell.rho), plan, out.seed,
                      /*threads=*/1, fold, merge);
  }

  out.state = acc.state();
  const auto n = static_cast<double>(acc.samples());
  out.mean_theta1 = acc.theta1().mean();
  out.mean_theta2 = acc.theta2().mean();
  out.prob_n1_positive = static_cast<double>(acc.n1_positive()) / n;
  out.prob_n2_positive = static_cast<double>(acc.n2_positive()) / n;
  out.risk_ratio = acc.n1_positive() > 0
                       ? static_cast<double>(acc.n2_positive()) /
                             static_cast<double>(acc.n1_positive())
                       : 0.0;
  return out;
}

}  // namespace

scenario_cell_result run_scenario_cell(const scenario_axes& axes, const scenario_config& cfg,
                                       const scenario_cell& cell, std::size_t cell_index) {
  return run_cell(axes, cfg, cell, cell_index);
}

std::vector<scenario_cell> enumerate_cells(const scenario_axes& axes) {
  if (axes.universes.empty() || axes.correlations.empty() || axes.overlaps.empty() ||
      axes.aliasing.empty() || axes.adjudications.empty() || axes.budgets.empty()) {
    throw std::invalid_argument("scenario_grid: every axis needs >= 1 value");
  }
  if (axes.rho_model != correlation_model::mixture &&
      axes.rho_model != correlation_model::copula) {
    throw std::invalid_argument("scenario_grid: unknown correlation model");
  }
  for (const double rho : axes.correlations) {
    if (axes.rho_model == correlation_model::mixture) {
      // Negative ρ needs the copula model; the mixture has no such regime.
      if (!(rho >= 0.0) || !(rho < 1.0)) {
        throw std::invalid_argument("scenario_grid: mixture rho must be in [0,1)");
      }
    } else if (!(rho > -1.0) || !(rho < 1.0)) {
      throw std::invalid_argument("scenario_grid: copula rho must be in (-1,1)");
    }
  }
  for (const double w : axes.overlaps) {
    if (!(w >= 0.0) || !(w <= 1.0)) {
      throw std::invalid_argument("scenario_grid: overlap must be in [0,1]");
    }
  }
  for (const std::size_t k : axes.aliasing) {
    if (k == 0) throw std::invalid_argument("scenario_grid: aliasing must be >= 1");
  }
  if (axes.rho_model == correlation_model::mixture) {
    // Construct every (universe × aliasing × ρ) mixture the cells will use: a
    // ρ·stress past a universe's deflation limit leaves no relaxed p that
    // keeps the marginal, and is refused here — before a run directory is
    // written or queued — instead of by every worker that reaches the cell.
    for (const auto& [name, base] : axes.universes) {
      for (const std::size_t k : axes.aliasing) {
        std::optional<core::fault_universe> aliased;
        if (k > 1) aliased.emplace(split_into_mistakes(base, k).effective_universe());
        for (const double rho : axes.correlations) {
          try {
            const common_cause_mixture probe(aliased ? *aliased : base, rho, axes.stress);
          } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("scenario_grid: mixture rho " + shortest(rho) +
                                        " is infeasible for universe '" + name +
                                        "' (aliasing " + std::to_string(k) + ", stress " +
                                        shortest(axes.stress) + "): " + e.what());
          }
        }
      }
    }
  }
  for (const core::architecture& arch : axes.adjudications) {
    // The cap is the spec parser's and the pair fold's (core::kMaxFoldVersions).
    if (arch.versions == 0 || arch.votes_to_defeat == 0 ||
        arch.votes_to_defeat > arch.versions || arch.versions > core::kMaxFoldVersions) {
      throw std::invalid_argument(
          "scenario_grid: adjudication needs 1 <= votes_to_defeat <= versions <= 64");
    }
  }
  for (const std::uint64_t s : axes.budgets) {
    if (s == 0) throw std::invalid_argument("scenario_grid: budget must be > 0");
  }
  const std::size_t grid_cells = axes.universes.size() * axes.correlations.size() *
                                 axes.overlaps.size() * axes.aliasing.size() *
                                 axes.adjudications.size() * axes.budgets.size();
  if (!axes.cell_budgets.empty()) {
    // Per-cell overrides keep the grid shape: the budget axis degenerates to
    // one placeholder value and the override vector supplies cell i's
    // samples.  Anything else would change cell indices — and with them
    // every cell seed.
    if (axes.budgets.size() != 1) {
      throw std::invalid_argument(
          "scenario_grid: cell_budgets requires a single-valued budget axis");
    }
    if (axes.cell_budgets.size() != grid_cells) {
      throw std::invalid_argument(
          "scenario_grid: cell_budgets must hold one budget per cell");
    }
    for (const std::uint64_t s : axes.cell_budgets) {
      if (s == 0) throw std::invalid_argument("scenario_grid: cell budget must be > 0");
    }
  }
  std::vector<scenario_cell> cells;
  cells.reserve(grid_cells);
  for (std::size_t u = 0; u < axes.universes.size(); ++u) {
    for (const double rho : axes.correlations) {
      for (const double omega : axes.overlaps) {
        for (const std::size_t k : axes.aliasing) {
          for (const core::architecture& arch : axes.adjudications) {
            for (const std::uint64_t samples : axes.budgets) {
              const std::uint64_t resolved = axes.cell_budgets.empty()
                                                 ? samples
                                                 : axes.cell_budgets[cells.size()];
              cells.push_back({u, axes.universes[u].first, rho, omega, k, arch.versions,
                               arch.votes_to_defeat, resolved});
            }
          }
        }
      }
    }
  }
  return cells;
}

namespace {

void run_cell_window(const scenario_axes& axes, const scenario_config& cfg,
                     const std::vector<scenario_cell>& cells, std::size_t cell_begin,
                     std::size_t cell_end, grid_result& out) {
  if (cell_begin > cell_end || cell_end > cells.size()) {
    throw std::invalid_argument("run_scenario_cells: cell window out of range");
  }
  if (out.cells.size() != cell_begin) {
    throw std::invalid_argument(
        "run_scenario_cells: result must hold exactly the checkpointed prefix");
  }
  out.cells.reserve(cell_end);
  run_jobs(
      cell_begin, cell_end, cfg.threads,
      [&](std::size_t index) { return run_cell(axes, cfg, cells[index], index); },
      [&out](std::size_t /*index*/, scenario_cell_result&& cell) {
        out.cells.push_back(std::move(cell));
      });
}

}  // namespace

void run_scenario_cells(const scenario_axes& axes, const scenario_config& cfg,
                        std::size_t cell_begin, std::size_t cell_end, grid_result& out) {
  run_cell_window(axes, cfg, enumerate_cells(axes), cell_begin, cell_end, out);
}

grid_result run_scenario_grid(const scenario_axes& axes, const scenario_config& cfg) {
  const auto cells = enumerate_cells(axes);
  grid_result out;
  run_cell_window(axes, cfg, cells, 0, cells.size(), out);
  return out;
}

}  // namespace reldiv::mc
