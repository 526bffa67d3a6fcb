#pragma once
// The lane group loop: the one pair loop of every sampler that draws one
// shard stream per 64-bit lane (core::kXoshiroLanes shards per group) and
// records each pair step of those shards at once.  Every experiment engine
// runs through it, and so do mc::run_correlated, scenario cells and
// mc::run_pair_campaign: the library has no other pair loop.  They share
// one step schedule, one per-shard export and one merge order;
// run_xoshiro_lanes is the one place that opens xoshiro lane groups.
//
// A group's step draws one pair per lane and records it into the group's
// core::accumulator_lanes in the same pass, in one of three ways:
//   * the xoshiro pair step (run_table_lanes): core::xoshiro_pair_step_lanes
//     draws every channel of the eight lanes against a sampler's threshold
//     tables and sums θ1 and θ2 as it draws — the `exact` engine on a
//     universe's thresholds, and the common-cause mixture on its stressed
//     and relaxed ones;
//   * the counter pair step: core::counter_pair_step_lanes draws fast-simd's
//     counter streams and sums each mask word of the eight lanes as it
//     leaves its draw (run_engine_shards in experiment.cpp);
//   * samplers without lane tables (the copula, the aliased model) draw
//     each lane's channels into fault_masks the group owns and record them
//     with core::record_pair_lane (run_sampler_lanes); so does the pair
//     campaign, which draws its two channels from two universes and hands
//     the record its coincidence weights as θ2's weight span (campaign.cpp).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/simd_sampler.hpp"
#include "mc/experiment.hpp"
#include "mc/shard_runner.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

/// How the pair steps of a lane group record: θ1 is the first channel's Σq,
/// θ2 = ω·Σq over the faults at least `votes` of the `versions` channels
/// hold, with the pair steps at dispatch level `level`.  keep_samples
/// retains every pair's θ1 and θ2 in the exported shard accumulators.
struct lane_fold {
  unsigned versions = 2;
  unsigned votes = 2;
  double omega = 1.0;
  std::span<const double> q;
  core::simd_level level = core::simd_level::scalar;
  bool keep_samples = false;
};

/// Run shards [shard_begin, shard_end) of `plan` in groups of kXoshiroLanes
/// consecutive shards, one shard per lane, and call `merge(shard,
/// experiment_accumulator&&)` for every shard in ascending order on the
/// calling thread.
///
/// `start(first, active)` opens the group of shards [first, first + active)
/// and returns its step: `step(s, live, acc, thetas)` records pair `s` of
/// shard first + l into lane l < live of `acc` (core::accumulator_lanes),
/// and its θ1 and θ2 into lane l of *thetas when `thetas` is not null (when
/// fold.keep_samples is set), as core::record_pair_lane records the pair
/// `fold` describes.
/// The calling thread calls `start` for every group, in ascending order,
/// before any group runs, so a start may walk a sequential stream; the groups
/// then fan out over `threads` workers (0 = the CPUs the calling thread may
/// run on), each step used by one worker.
///
/// Shard sizes within a plan differ by at most one and never grow with the
/// index, so step s of a group runs the lanes whose shard has more than s
/// pairs: every lane up to the group's last (smallest) shard, then the prefix
/// of lanes that own one pair more.  A last group with fewer shards leaves
/// its spare lanes undrawn.  Every shard therefore draws and records exactly
/// as it would alone, and neither the grouping nor the thread count changes a
/// bit of any shard's result.  Each lane is exported once through
/// experiment_accumulator::from_state.
template <typename Start, typename Merge>
void run_shard_lanes(const shard_plan& plan, unsigned shard_begin, unsigned shard_end,
                     unsigned threads, const lane_fold& fold, Start&& start, Merge&& merge) {
  constexpr unsigned kLanes = core::kXoshiroLanes;
  if (shard_begin > shard_end || shard_end > plan.shard_count) {
    throw std::invalid_argument("run_shard_lanes: shard window out of range");
  }
  using step_type = std::decay_t<std::invoke_result_t<Start&, unsigned, unsigned>>;
  std::vector<step_type> steps;
  for (unsigned first = shard_begin; first < shard_end; first += kLanes) {
    steps.push_back(start(first, std::min(kLanes, shard_end - first)));
  }
  const auto group_first = [shard_begin](std::size_t group) {
    return shard_begin + static_cast<unsigned>(group) * kLanes;
  };
  run_jobs(
      0, steps.size(), threads,
      [&](std::size_t group) {
        const unsigned first = group_first(group);
        const unsigned active = std::min(kLanes, shard_end - first);
        // The worker's own copy: a step that advances stream state in place
        // would otherwise share cache lines with its neighbours' in `steps`.
        auto step = std::move(steps[group]);
        // Every lane runs `lockstep` steps and the first `longer` lanes one more.
        const std::uint64_t lockstep = plan.shard_samples(first + active - 1);
        unsigned longer = 0;
        while (longer < active && plan.shard_samples(first + longer) > lockstep) ++longer;
        core::accumulator_lanes tallies;
        core::pair_thetas thetas;
        std::array<std::vector<double>, kLanes> kept1;
        std::array<std::vector<double>, kLanes> kept2;
        for (std::uint64_t s = 0; s < plan.shard_samples(first); ++s) {
          const unsigned live = s < lockstep ? active : longer;
          step(s, live, tallies, fold.keep_samples ? &thetas : nullptr);
          if (fold.keep_samples) {
            for (unsigned l = 0; l < live; ++l) {
              kept1[l].push_back(thetas.theta1[l]);
              kept2[l].push_back(thetas.theta2[l]);
            }
          }
        }
        std::vector<experiment_accumulator> shards;
        shards.reserve(active);
        for (unsigned l = 0; l < active; ++l) {
          accumulator_state shard;
          shard.samples = tallies.samples[l];
          shard.theta1 = tallies.theta1_state(l);
          shard.theta2 = tallies.theta2_state(l);
          shard.n1_positive = tallies.n1_positive[l];
          shard.n2_positive = tallies.n2_positive[l];
          shard.n1_zero_pfd = tallies.n1_zero_pfd[l];
          shard.n2_zero_pfd = tallies.n2_zero_pfd[l];
          shard.keeping_samples = fold.keep_samples;
          shard.theta1_samples = std::move(kept1[l]);
          shard.theta2_samples = std::move(kept2[l]);
          shards.push_back(experiment_accumulator::from_state(shard));
        }
        return shards;
      },
      [&](std::size_t group, std::vector<experiment_accumulator>&& shards) {
        for (std::size_t l = 0; l < shards.size(); ++l) {
          merge(group_first(group) + static_cast<unsigned>(l), std::move(shards[l]));
        }
      });
}

/// run_shard_lanes over xoshiro streams: lane l of the group opening at
/// shard `first` holds stats::rng::stream(seed, first + l), taken from one
/// jump walk of rng(seed) on the calling thread — the streams run_shards
/// hands its shards.  `open(lanes)` returns the group's step (run_shard_lanes
/// says what it records), which owns `lanes` and advances them from step to
/// step.
template <typename Open, typename Merge>
void run_xoshiro_lanes(const shard_plan& plan, std::uint64_t seed, unsigned shard_begin,
                       unsigned shard_end, unsigned threads, const lane_fold& fold,
                       const Open& open, Merge&& merge) {
  stats::rng walker(seed);  // stream(seed, s) is rng(seed) jumped s times
  unsigned at = 0;          // the shard whose stream `walker` holds
  run_shard_lanes(
      plan, shard_begin, shard_end, threads, fold,
      [&](unsigned first, unsigned active) {
        for (; at < first; ++at) walker.jump();
        core::xoshiro_lanes lanes;
        for (unsigned l = 0; l < active; ++l, ++at) {
          lanes.set_lane(l, walker);
          walker.jump();
        }
        return open(lanes);
      },
      std::forward<Merge>(merge));
}

/// Shards [shard_begin, shard_end) through run_xoshiro_lanes, each pair step
/// one core::xoshiro_pair_step_lanes of fold.versions channels against
/// `tables`: the pair loop of the `exact` engine (a universe's thresholds)
/// and of the common-cause mixture.  Throws std::out_of_range when the
/// tables hold another number of faults than fold.q (a sampler built over
/// another universe).
template <typename Merge>
void run_table_lanes(const core::xoshiro_lane_tables& tables, const shard_plan& plan,
                     std::uint64_t seed, unsigned shard_begin, unsigned shard_end,
                     unsigned threads, const lane_fold& fold, Merge&& merge) {
  run_xoshiro_lanes(
      plan, seed, shard_begin, shard_end, threads, fold,
      [&tables, &fold](const core::xoshiro_lanes& lanes) {
        return [&tables, &fold, lanes = lanes, hits = std::vector<std::uint64_t>()](
                   std::uint64_t /*step*/, unsigned live, core::accumulator_lanes& acc,
                   core::pair_thetas* thetas) mutable {
          core::xoshiro_pair_step_lanes(lanes, tables, hits, acc, fold.versions, fold.votes,
                                        fold.omega, fold.q, live, fold.level, thetas);
        };
      },
      std::forward<Merge>(merge));
}

/// Every shard of `plan` through run_xoshiro_lanes, each pair's
/// fold.versions channels drawn in index order by `sampler.sample_mask` on
/// each live lane's stream in turn and recorded by core::record_pair_lane:
/// the pair loop of mc::run_correlated and scenario cells for samplers
/// without lane tables (the copula, the aliased model).  Throws
/// std::out_of_range when the sampler draws masks of another size than
/// fold.q.size() bits (a sampler built over another universe).
template <typename Sampler, typename Merge>
void run_sampler_lanes(const Sampler& sampler, const shard_plan& plan, std::uint64_t seed,
                       unsigned threads, const lane_fold& fold, Merge&& merge) {
  run_xoshiro_lanes(
      plan, seed, 0, plan.shard_count, threads, fold,
      [&sampler, &fold](const core::xoshiro_lanes& lanes) {
        return [&sampler, &fold, lanes = lanes,
                channels = std::vector<core::fault_mask>(fold.versions)](
                   std::uint64_t /*step*/, unsigned live, core::accumulator_lanes& acc,
                   core::pair_thetas* thetas) mutable {
          for (unsigned l = 0; l < live; ++l) {
            stats::rng r = lanes.lane(l);
            for (core::fault_mask& m : channels) sampler.sample_mask(r, m);
            lanes.set_lane(l, r);
            core::record_pair_lane(acc, l, channels, fold.votes, fold.omega, fold.q, thetas);
          }
        };
      },
      std::forward<Merge>(merge));
}

}  // namespace reldiv::mc
