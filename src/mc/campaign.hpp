#pragma once
// mc::campaign — the unified deterministic demand-campaign layer.
//
// Every empirical study in this library is, at bottom, a demand campaign:
// score a roster of targets (versions, pairs, channels, scenario cells)
// against a budget of simulated demands or version draws.  This header
// provides the one engine they all sit on, layered on shard_runner:
//
//  * run_jobs        — deterministic job fan-out (shard_runner.hpp, exported
//                      here): jobs are executed by any number of workers but
//                      merged in ascending job order on the calling thread,
//                      so thread count never leaks into results.  The
//                      scenario grid fans sweep cells out through it.
//  * demand campaign — score a fixed roster of per-target hit probabilities
//                      over a shared demand budget.  One rng stream PER
//                      TARGET, seeded by target_stream_seed(seed, t) (a
//                      splitmix64 hash — O(1) per target, unlike jump-based
//                      streams whose derivation is serial in the target
//                      index), so results are a pure function of (seed,
//                      demands, roster order): bit-identical across thread
//                      counts, shard groupings, and checkpoint/resume
//                      windows.  kl empirical scoring and estimate holdout
//                      scoring ride on it.
//  * pair campaign   — Monte-Carlo scoring of a two-channel pair (possibly
//                      with per-fault coincidence weights for functional
//                      diversity): the sample budget is decomposed by
//                      make_shard_plan (budget-scaled logical shards), each
//                      shard owning stream(seed, shard), and the shards run
//                      eight per lane group through the library's one pair
//                      loop (mc::run_xoshiro_lanes, shard_lanes.hpp), their
//                      accumulators merged in shard order into an
//                      experiment_accumulator.  forced/functional scoring
//                      rides on it.
//
// Determinism contract (inherited from shard_runner): thread count is a
// throughput knob, never a results knob.  The chosen logical layout (shard
// count / roster order) is part of the result's identity and is recorded in
// the result structs.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/fault_universe.hpp"
#include "mc/experiment.hpp"
#include "mc/shard_runner.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

/// Runner knobs shared by every campaign.  `seed` and `shards` are part of
/// the result's identity; `threads` affects throughput only.
struct campaign_config {
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< workers; 0 = the CPUs the calling thread may run on
  unsigned shards = 0;   ///< logical rng streams for budget-sharded campaigns;
                         ///< 0 = default_logical_shards(budget)
};

// ---------------------------------------------------------------------------
// Target-roster demand campaign
// ---------------------------------------------------------------------------

/// Mergeable, serializable tally of a demand campaign: per-target failure
/// counts over a shared per-target demand budget.  Targets outside the
/// windows accumulated so far hold 0; merging window tallies is plain
/// element-wise addition, so a campaign interrupted at any target boundary
/// and resumed from a serialized tally equals the uninterrupted run exactly.
struct demand_tally {
  std::uint64_t demands = 0;               ///< budget per target
  std::vector<std::uint64_t> failures;     ///< roster order

  /// Empirical failure rates failures[t] / demands.
  [[nodiscard]] std::vector<double> rates() const;

  /// Element-wise fold of another tally over the same roster and budget
  /// (windows accumulated disjointly); throws std::invalid_argument on a
  /// roster-size or budget mismatch.
  void merge(const demand_tally& other);
};

/// Seed of target t's private campaign stream: a splitmix64 hash of
/// (campaign seed, target index).  O(1) per target — any window of a huge
/// roster can derive its streams without walking the prefix — and part of
/// the campaign's result identity.
[[nodiscard]] inline std::uint64_t target_stream_seed(std::uint64_t seed,
                                                      std::uint64_t target) noexcept {
  std::uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (target + 1);
  return stats::splitmix64_next(state);
}

/// Score targets [target_begin, target_end) of the roster: target t's
/// failure count is one Binomial(demands, pfd[t]) draw from its OWN stream
/// stats::rng(target_stream_seed(cfg.seed, t)), accumulated into `out`
/// (which must already be sized to the full roster with out.demands ==
/// demands).  The per-target streams make the result independent of both
/// the thread count and how the roster is windowed across calls.  A target
/// is a few hundred nanoseconds of work, so the window starts at most one
/// of cfg.threads' workers per 512 targets; a short window runs on the
/// calling thread.
void run_demand_campaign_window(std::span<const double> target_pfd, std::uint64_t demands,
                                const campaign_config& cfg, std::size_t target_begin,
                                std::size_t target_end, demand_tally& out);

/// Score the whole roster: each target's campaign is `demands` demands
/// against a region of hit probability pfd[t] (disjoint regions make the
/// failure count one binomial draw).  Throws std::invalid_argument when the
/// roster is empty or demands == 0.
[[nodiscard]] demand_tally run_demand_campaign(std::span<const double> target_pfd,
                                               std::uint64_t demands,
                                               const campaign_config& cfg);

// ---------------------------------------------------------------------------
// Distributed demand campaign: the manifest + window job unit
// ---------------------------------------------------------------------------

/// Identity of a distributed demand campaign: the full roster atom-for-atom,
/// the per-target budget, the campaign seed, and the window size that slices
/// the roster into job units.  Window w covers targets
/// [w*window, min((w+1)*window, roster)); because every target owns its own
/// rng stream (target_stream_seed), a window result is a pure function of
/// (manifest, window index) — the property the multi-process driver needs.
struct demand_manifest {
  std::vector<double> target_pfd;  ///< roster, in campaign order
  std::uint64_t demands = 0;       ///< budget per target
  std::uint64_t seed = 1;
  std::uint64_t window = 0;        ///< targets per distributed window

  /// The campaign_config this manifest pins (threads is a throughput knob,
  /// never part of the identity).
  [[nodiscard]] campaign_config config(unsigned threads = 0) const {
    return campaign_config{.seed = seed, .threads = threads, .shards = 0};
  }
  /// ceil(roster / window).
  [[nodiscard]] std::uint64_t window_count() const;
  /// [target_begin, target_end) of window `index`; throws std::out_of_range
  /// past window_count().
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> window_bounds(
      std::uint64_t index) const;
  /// Throws std::invalid_argument on an empty roster, demands == 0,
  /// window == 0, or a pfd outside [0, 1].
  void validate() const;
};

/// One computed window: the slice of per-target failure counts it owns.
/// Slices over disjoint windows assemble into the exact run_demand_campaign
/// tally — the counts are integers, so "merge" is plain placement.
struct demand_window_result {
  std::uint64_t target_begin = 0;
  std::uint64_t target_end = 0;
  std::uint64_t demands = 0;
  std::vector<std::uint64_t> failures;  ///< targets [target_begin, target_end)
};

/// Pure job unit of the distributed demand driver, mirroring
/// run_scenario_cell: compute window `index` of the manifest's campaign.
/// Bit-identical to the corresponding slice of run_demand_campaign for the
/// same (roster, demands, seed), regardless of threads or window layout.
[[nodiscard]] demand_window_result run_demand_window(const demand_manifest& m,
                                                     std::uint64_t index,
                                                     unsigned threads = 0);

// ---------------------------------------------------------------------------
// Two-channel pair campaign
// ---------------------------------------------------------------------------

/// Monte-Carlo scoring of a 1-out-of-2 pair whose channels are developed by
/// (possibly) different processes over the SAME failure regions: per sample,
/// version A is drawn from `channel_a`, then B from `channel_b`, each with
/// sample_version_mask (53-bit exact-stream thresholds); θ1 is A's PFD and
/// θ2 is Σ coincidence_q[i] over faults present in both, each summed in
/// ascending fault order.  `coincidence_q` carries functional-diversity
/// overlap thinning (ω_i·q_i); pass channel_a.q_array() for plain forced
/// diversity.  A pair counts toward n2_positive only when some common fault
/// has coincidence_q > 0 (a shared fault whose regions never coincide is not
/// a common failure point).  Each pair is recorded by core::record_pair_lane
/// with coincidence_q as its θ2 weight span.
///
/// The budget is decomposed by make_shard_plan(samples, cfg.shards); shard s
/// draws from stream(cfg.seed, s), the shards run eight per lane group
/// (mc::run_xoshiro_lanes) fanned out over cfg.threads, and accumulators
/// merge in shard order — bit-identical across thread counts.  The layout
/// is recorded in the result's `shards` field.
[[nodiscard]] experiment_result run_pair_campaign(const core::fault_universe& channel_a,
                                                  const core::fault_universe& channel_b,
                                                  std::span<const double> coincidence_q,
                                                  std::uint64_t samples,
                                                  const campaign_config& cfg);

}  // namespace reldiv::mc
