#include "mc/campaign.hpp"

#include <algorithm>
#include <array>

#include "core/simd_sampler.hpp"
#include "mc/sampler.hpp"
#include "mc/shard_lanes.hpp"

namespace reldiv::mc {

namespace {

/// Targets per demand-campaign worker.  A target is one binomial draw of a
/// few hundred nanoseconds, so a worker costs more to start than a short
/// roster saves: on the 4-CPU host this was measured on, two workers first
/// beat one at a roster of about 512 targets (10^6 demands each).
constexpr std::size_t kTargetsPerWorker = 512;

/// Score targets [begin, end) of the roster into out[t - begin], each
/// target's failure count one binomial draw from its own stream, over at
/// most ⌈(end - begin) / kTargetsPerWorker⌉ workers: a window too short to
/// feed two runs on the calling thread.
void score_targets(std::span<const double> target_pfd, std::uint64_t demands,
                   const campaign_config& cfg, std::size_t begin, std::size_t end,
                   std::span<std::uint64_t> out) {
  const std::size_t fed = (end - begin + kTargetsPerWorker - 1) / kTargetsPerWorker;
  run_jobs(
      begin, end, fed > 1 ? resolve_threads(cfg.threads, fed) : 1,
      [&](std::size_t target) {
        // O(1) per-target stream derivation: workers seed their own streams,
        // so there is no serial jump walk to amortize and any window of a
        // huge roster starts instantly.
        stats::rng r(target_stream_seed(cfg.seed, target));
        return stats::binomial_deviate(r, demands, target_pfd[target]);
      },
      [&](std::size_t target, std::uint64_t&& fails) { out[target - begin] = fails; });
}

}  // namespace

std::vector<double> demand_tally::rates() const {
  std::vector<double> out;
  out.reserve(failures.size());
  for (const auto f : failures) {
    out.push_back(static_cast<double>(f) / static_cast<double>(demands));
  }
  return out;
}

void demand_tally::merge(const demand_tally& other) {
  if (failures.size() != other.failures.size() || demands != other.demands) {
    throw std::invalid_argument("demand_tally::merge: roster/budget mismatch");
  }
  for (std::size_t t = 0; t < failures.size(); ++t) failures[t] += other.failures[t];
}

void run_demand_campaign_window(std::span<const double> target_pfd, std::uint64_t demands,
                                const campaign_config& cfg, std::size_t target_begin,
                                std::size_t target_end, demand_tally& out) {
  if (target_begin > target_end || target_end > target_pfd.size()) {
    throw std::invalid_argument("run_demand_campaign: target window out of range");
  }
  if (demands == 0) {
    throw std::invalid_argument("run_demand_campaign: demands must be > 0");
  }
  if (out.failures.size() != target_pfd.size() || out.demands != demands) {
    throw std::invalid_argument("run_demand_campaign: tally does not match campaign");
  }
  score_targets(target_pfd, demands, cfg, target_begin, target_end,
                std::span(out.failures).subspan(target_begin, target_end - target_begin));
}

demand_tally run_demand_campaign(std::span<const double> target_pfd, std::uint64_t demands,
                                 const campaign_config& cfg) {
  if (target_pfd.empty()) {
    throw std::invalid_argument("run_demand_campaign: empty target roster");
  }
  demand_tally out;
  out.demands = demands;
  out.failures.assign(target_pfd.size(), 0);
  run_demand_campaign_window(target_pfd, demands, cfg, 0, target_pfd.size(), out);
  return out;
}

std::uint64_t demand_manifest::window_count() const {
  validate();
  return (target_pfd.size() + window - 1) / window;
}

std::pair<std::uint64_t, std::uint64_t> demand_manifest::window_bounds(
    std::uint64_t index) const {
  const std::uint64_t windows = window_count();
  if (index >= windows) {
    throw std::out_of_range("demand_manifest: window index " + std::to_string(index) +
                            " out of range (windows: " + std::to_string(windows) + ")");
  }
  const std::uint64_t begin = index * window;
  const std::uint64_t end = std::min<std::uint64_t>(begin + window, target_pfd.size());
  return {begin, end};
}

void demand_manifest::validate() const {
  if (target_pfd.empty()) {
    throw std::invalid_argument("demand_manifest: empty target roster");
  }
  if (demands == 0) throw std::invalid_argument("demand_manifest: demands must be > 0");
  if (window == 0) throw std::invalid_argument("demand_manifest: window must be > 0");
  for (const double pfd : target_pfd) {
    if (!(pfd >= 0.0 && pfd <= 1.0)) {
      throw std::invalid_argument("demand_manifest: target pfd outside [0, 1]");
    }
  }
}

demand_window_result run_demand_window(const demand_manifest& m, std::uint64_t index,
                                       unsigned threads) {
  const auto [begin, end] = m.window_bounds(index);
  demand_window_result out;
  out.target_begin = begin;
  out.target_end = end;
  out.demands = m.demands;
  out.failures.assign(end - begin, 0);
  score_targets(m.target_pfd, m.demands, m.config(threads), begin, end, out.failures);
  return out;
}

experiment_result run_pair_campaign(const core::fault_universe& channel_a,
                                    const core::fault_universe& channel_b,
                                    std::span<const double> coincidence_q,
                                    std::uint64_t samples, const campaign_config& cfg) {
  if (channel_a.size() != channel_b.size()) {
    throw std::invalid_argument("run_pair_campaign: channels must share the fault set");
  }
  if (coincidence_q.size() != channel_a.size()) {
    throw std::invalid_argument("run_pair_campaign: coincidence weights size mismatch");
  }
  if (samples == 0) {
    throw std::invalid_argument("run_pair_campaign: samples must be > 0");
  }
  const shard_plan plan = make_shard_plan(samples, cfg.shards);
  const lane_fold fold{.q = channel_a.q_array()};
  experiment_accumulator total;
  run_xoshiro_lanes(
      plan, cfg.seed, 0, plan.shard_count, cfg.threads, fold,
      [&](const core::xoshiro_lanes& lanes) {
        return [&, lanes = lanes, channels = std::array<core::fault_mask, 2>()](
                   std::uint64_t /*step*/, unsigned live, core::accumulator_lanes& acc,
                   core::pair_thetas* thetas) mutable {
          for (unsigned l = 0; l < live; ++l) {
            stats::rng r = lanes.lane(l);
            sample_version_mask(channel_a, r, channels[0]);
            sample_version_mask(channel_b, r, channels[1]);
            lanes.set_lane(l, r);
            core::record_pair_lane(acc, l, channels, fold.votes, fold.omega, fold.q, thetas,
                                   coincidence_q);
          }
        };
      },
      [&total](unsigned /*shard*/, experiment_accumulator&& acc) { total.merge(acc); });
  experiment_result result = total.to_result();
  result.shards = plan.shard_count;
  return result;
}

}  // namespace reldiv::mc
