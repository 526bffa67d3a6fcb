// P3 (campaign) — throughput of the unified demand-campaign layer,
// recorded to BENCH_p3.json by bench/run_bench.sh.
//
// * KL empirical scoring: the 27-version + 351-pair roster scored over a
//   1M-demand campaign.  BM_KLScoreSerialBaseline is the pre-campaign
//   single-stream loop (one shared rng, one binomial draw per target in
//   roster order); BM_KLScoreCampaign is the shipping campaign layer (one
//   stream per target, fanned over workers — results bit-identical across
//   thread counts).
// * Grouped-universe sampling: run_experiment's default fast-simd engine on
//   a universe made of homogeneous p-blocks, whose words it bit-slices, and
//   on the same atoms shuffled so no word is uniform until its p-sorted
//   relayout gathers them again.  The exact engine on the shuffled universe
//   is the baseline: if the relayout stopped gathering, fast-simd would draw
//   the shuffled words fault by fault and lose most of its lead.
// * Scenario grid: cells/second of a small sweep.
//
// Thread-count args: 0 means hardware_concurrency (the shipping default).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bench_main.hpp"
#include "core/generators.hpp"
#include "kl/experiment.hpp"
#include "mc/campaign.hpp"
#include "mc/scenario.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;

// The KL roster: exact per-version and per-pair PFDs (27 + 351 targets).
const std::vector<double>& kl_roster() {
  static const std::vector<double> roster = [] {
    const auto u = core::make_knight_leveson_like_universe(1);
    kl::kl_config cfg;
    cfg.score_empirically = false;
    const auto res = kl::run_kl_experiment(u, cfg);
    std::vector<double> r = res.version_pfd;
    r.insert(r.end(), res.pair_pfd.begin(), res.pair_pfd.end());
    return r;
  }();
  return roster;
}

constexpr std::uint64_t kDemands = 1'000'000;

// Pre-campaign baseline: one shared stream, binomial per target in order.
void BM_KLScoreSerialBaseline(benchmark::State& state) {
  const auto& roster = kl_roster();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    stats::rng r(seed++);
    std::uint64_t total = 0;
    for (const double pfd : roster) {
      total += stats::binomial_deviate(r, kDemands, pfd);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(roster.size()));
}
BENCHMARK(BM_KLScoreSerialBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_KLScoreCampaign(benchmark::State& state) {
  const auto& roster = kl_roster();
  mc::campaign_config cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(mc::run_demand_campaign(roster, kDemands, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(roster.size()));
}
BENCHMARK(BM_KLScoreCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end KL experiment with empirical scoring on the campaign layer.
void BM_KLExperimentEndToEnd(benchmark::State& state) {
  const auto u = core::make_knight_leveson_like_universe(1);
  kl::kl_config cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 20010704;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(kl::run_kl_experiment(u, cfg));
  }
}
BENCHMARK(BM_KLExperimentEndToEnd)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Grouped-universe sampling: 4 homogeneous 64-fault blocks (sliceable
// thresholds) vs the same atom multiset shuffled so no word is uniform (the
// p-sorted relayout gathers it back into sliceable words).
void run_grouped_bench(benchmark::State& state, bool shuffled, mc::sampling_engine engine) {
  std::vector<core::fault_block> blocks = {{64, 0.5, 0.8 / 256.0},
                                           {64, 0.25, 0.8 / 256.0},
                                           {64, 0.125, 0.8 / 256.0},
                                           {64, 0.0625, 0.8 / 256.0}};
  auto u = core::make_grouped_universe(blocks);
  if (shuffled) {
    std::vector<core::fault_atom> atoms = u.atoms();
    // Deterministic interleave: round-robin over the four blocks breaks
    // every word's p-uniformity while keeping the same atom multiset.
    std::vector<core::fault_atom> mixed;
    mixed.reserve(atoms.size());
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t b = 0; b < 4; ++b) mixed.push_back(atoms[b * 64 + i]);
    }
    u = core::fault_universe(std::move(mixed));
  }
  mc::experiment_config cfg;
  cfg.samples = 4096;
  cfg.engine = engine;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(mc::run_experiment(u, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.samples));
}
void BM_RunExperimentGrouped(benchmark::State& state) {
  run_grouped_bench(state, false, mc::sampling_engine::fast_simd);
}
void BM_RunExperimentShuffled(benchmark::State& state) {
  run_grouped_bench(state, true, mc::sampling_engine::fast_simd);
}
void BM_RunExperimentExactShuffled(benchmark::State& state) {
  run_grouped_bench(state, true, mc::sampling_engine::exact);
}
BENCHMARK(BM_RunExperimentGrouped)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_RunExperimentShuffled)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_RunExperimentExactShuffled)->Unit(benchmark::kMillisecond)->UseRealTime();

// Scenario grid: a 3x3 rho x omega sweep, cells fanned over the pool.
void BM_ScenarioGrid(benchmark::State& state) {
  mc::scenario_axes axes;
  axes.universes.emplace_back("random32", core::make_random_universe(32, 0.3, 0.6, 9));
  axes.correlations = {0.0, 0.2, 0.4};
  axes.overlaps = {1.0, 0.5, 0.0};
  axes.budgets = {4096};
  mc::scenario_config cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(mc::run_scenario_grid(axes, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 9);
}
BENCHMARK(BM_ScenarioGrid)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

RELDIV_BENCHMARK_MAIN()
