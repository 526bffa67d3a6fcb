// P2 (runner) — throughput of the deterministic sharded runners across
// worker counts, recorded to BENCH_p2.json by bench/run_bench.sh.  The
// determinism contract says thread count changes throughput only; this file
// measures how much throughput it buys, for the correlated runner and the
// plain experiment runner (one thread is each one's baseline).
//
// Thread-count args: 0 means hardware_concurrency (the shipping default).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "bench_main.hpp"
#include "core/generators.hpp"
#include "mc/correlated.hpp"
#include "mc/experiment.hpp"

namespace {

using namespace reldiv;

constexpr std::uint64_t kSamples = 4096;
constexpr std::size_t kUniverse = 256;

const core::fault_universe& bench_universe() {
  static const auto u = core::make_random_universe(kUniverse, 0.3, 0.8, 5);
  return u;
}

const mc::common_cause_mixture& bench_mixture() {
  static const mc::common_cause_mixture mix(bench_universe(), 0.3, 1.5);
  return mix;
}

// Sharded runner at various worker counts (results are identical across all
// of them — that is the point — so this isolates the threading overhead and
// speedup).
void BM_RunCorrelatedSharded(benchmark::State& state) {
  const auto& u = bench_universe();
  const auto& mix = bench_mixture();
  mc::correlated_config cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::run_correlated(u, mix, kSamples, seed++, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_RunCorrelatedSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RunExperimentSharded(benchmark::State& state) {
  const auto& u = bench_universe();
  mc::experiment_config cfg;
  cfg.samples = kSamples;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(mc::run_experiment(u, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_RunExperimentSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Streaming accumulator overhead: the checkpointable chunked path must cost
// the same as the one-shot path (it is the same shard sequence).
void BM_RunExperimentChunkedCheckpoints(benchmark::State& state) {
  const auto& u = bench_universe();
  mc::experiment_config cfg;
  cfg.samples = kSamples;
  cfg.threads = 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    const unsigned shards = mc::experiment_shard_count(cfg);
    mc::experiment_accumulator acc;
    for (unsigned s = 0; s < shards; s += 64) {
      mc::run_experiment_shards(u, cfg, s, std::min(s + 64, shards), acc);
      acc = mc::experiment_accumulator::from_state(acc.state());
    }
    benchmark::DoNotOptimize(acc.to_result(cfg.ci_level));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_RunExperimentChunkedCheckpoints)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

RELDIV_BENCHMARK_MAIN()
