#pragma once
// The lane group loop: the one pair loop of every sampler that draws one
// shard stream per 64-bit lane (core::kXoshiroLanes shards per group) and
// folds each pair step of those shards at once (core::fold_pair_lanes).
// Every experiment engine runs through it: `exact` on xoshiro shard streams
// through sample_version_mask, fast-simd on the counter lanes.  So do
// mc::run_correlated and scenario cells, on xoshiro streams through the
// correlated samplers (the mixture's lane kernel, per-lane sample_mask
// otherwise).  All of them share one step schedule, one per-shard export and
// one merge order; run_xoshiro_lanes is the one place that opens xoshiro lane
// groups.  mc::run_pair_campaign's weighted loop is the only pair loop
// outside it: its θ2 sums coincidence weights, not q.
//
// A group's pair step lives in one core::lane_block, allocated once per
// group: channel v's word b of lane l at (v·W + b)·8 + l, so the lane
// kernels store, and the fold loads, each mask word of all eight lanes as
// one register.  A sampler without a lane kernel draws each lane into one
// fault_mask the group owns and copies it into the lane's column
// (draw_lane_by_lane).

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
#include "mc/campaign.hpp"
#include "mc/experiment.hpp"
#include "mc/shard_runner.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

/// How the pair steps of a lane group fold: θ1 is the first channel's Σq,
/// θ2 = ω·Σq over the faults at least `votes` of the `versions` channels
/// hold, at dispatch level `level`.  keep_samples retains every pair's θ1
/// and θ2 in the exported shard accumulators.
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
/// and returns its draw: `draw(step, live, block)` fills lane l < live of
/// the block's fold.versions channels (core::lane_block, fold.q.size() bits)
/// with pair `step` of shard first + l.
/// The calling thread calls `start` for every group, in ascending order,
/// before any group runs, so a start may walk a sequential stream; the groups
/// then fan out over `threads` workers (0 = hardware concurrency), each draw
/// used by one worker.
///
/// Shard sizes within a plan differ by at most one and never grow with the
/// index, so step s of a group runs the lanes whose shard has more than s
/// pairs: every lane up to the group's last (smallest) shard, then the prefix
/// of lanes that own one pair more.  A last group with fewer shards leaves
/// its spare lanes undrawn.  Every shard therefore draws and folds exactly as
/// it would alone, and neither the grouping nor the thread count changes a
/// bit of any shard's result.  Each lane is exported once through
/// experiment_accumulator::from_state.
template <typename Start, typename Merge>
void run_shard_lanes(const shard_plan& plan, unsigned shard_begin, unsigned shard_end,
                     unsigned threads, const lane_fold& fold, Start&& start, Merge&& merge) {
  constexpr unsigned kLanes = core::kXoshiroLanes;
  if (shard_begin > shard_end || shard_end > plan.shard_count) {
    throw std::invalid_argument("run_shard_lanes: shard window out of range");
  }
  using draw_type = std::decay_t<std::invoke_result_t<Start&, unsigned, unsigned>>;
  std::vector<draw_type> draws;
  for (unsigned first = shard_begin; first < shard_end; first += kLanes) {
    draws.push_back(start(first, std::min(kLanes, shard_end - first)));
  }
  const auto group_first = [shard_begin](std::size_t group) {
    return shard_begin + static_cast<unsigned>(group) * kLanes;
  };
  run_jobs(
      0, draws.size(), threads,
      [&](std::size_t group) {
        const unsigned first = group_first(group);
        const unsigned active = std::min(kLanes, shard_end - first);
        // The worker's own copy: a draw that advances stream state in place
        // would otherwise share cache lines with its neighbours' in `draws`.
        auto draw = std::move(draws[group]);
        core::lane_block block(fold.versions, fold.q.size());
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
          draw(s, live, block);
          core::fold_pair_lanes(tallies, block, fold.votes, fold.omega, fold.q, live, fold.level,
                                fold.keep_samples ? &thetas : nullptr);
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
/// hands its shards.  `draw(lanes, live, block, scratch)` fills lane l < live
/// of the block's fold.versions channels from lane l of `lanes`, advancing
/// it; the group's lanes persist from step to step, and `scratch` is a
/// fault_mask the group owns for draws that go one lane at a time.
template <typename Draw, typename Merge>
void run_xoshiro_lanes(const shard_plan& plan, std::uint64_t seed, unsigned shard_begin,
                       unsigned shard_end, unsigned threads, const lane_fold& fold,
                       const Draw& draw, Merge&& merge) {
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
        return [&draw, lanes, scratch = core::fault_mask()](
                   std::uint64_t /*step*/, unsigned live, core::lane_block& block) mutable {
          draw(lanes, live, block, scratch);
        };
      },
      std::forward<Merge>(merge));
}

/// Channel v of lanes [0, live) drawn one lane at a time: draw_one(r, scratch)
/// on each live lane's stream in turn, each mask copied into its lane's
/// column of `block` — the draw of samplers without a lane kernel.  Throws
/// std::out_of_range when a drawn mask is not block.bit_size() bits.
template <typename DrawOne>
void draw_lane_by_lane(core::xoshiro_lanes& lanes, unsigned live, core::lane_block& block,
                       unsigned v, core::fault_mask& scratch, const DrawOne& draw_one) {
  for (unsigned l = 0; l < live; ++l) {
    stats::rng r = lanes.lane(l);
    draw_one(r, scratch);
    lanes.set_lane(l, r);
    block.store_lane(v, l, scratch);
  }
}

/// Every shard of `plan` through run_xoshiro_lanes, each pair's
/// fold.versions channels drawn in index order from `sampler`: the pair loop
/// of mc::run_correlated and scenario cells.  A sampler with a lane kernel
/// (`sample_mask_lanes`, the mixture's) draws all live lanes of a channel at
/// once; any other calls `sample_mask` on each live lane's stream in turn.
/// Throws std::out_of_range when the sampler draws masks of another size
/// than fold.q.size() bits (a sampler built over another universe).
template <typename Sampler, typename Merge>
void run_sampler_lanes(const Sampler& sampler, const shard_plan& plan, std::uint64_t seed,
                       unsigned threads, const lane_fold& fold, Merge&& merge) {
  run_xoshiro_lanes(
      plan, seed, 0, plan.shard_count, threads, fold,
      [&sampler, versions = fold.versions, level = fold.level](
          core::xoshiro_lanes& lanes, unsigned live, core::lane_block& block,
          core::fault_mask& scratch) {
        for (unsigned v = 0; v < versions; ++v) {
          if constexpr (requires { sampler.sample_mask_lanes(lanes, block, v, live, level); }) {
            sampler.sample_mask_lanes(lanes, block, v, live, level);
          } else {
            draw_lane_by_lane(lanes, live, block, v, scratch,
                              [&sampler](stats::rng& r, core::fault_mask& m) {
                                sampler.sample_mask(r, m);
                              });
          }
        }
      },
      std::forward<Merge>(merge));
}

}  // namespace reldiv::mc
