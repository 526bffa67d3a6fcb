// P1 — google-benchmark microbenchmarks of the computational kernels, so
// regressions in the hot paths (moments, eq. 10 products, exact laws,
// version sampling) are visible.

#include <benchmark/benchmark.h>

#include "bench_main.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/no_common_fault.hpp"
#include "core/pfd_distribution.hpp"
#include "mc/experiment.hpp"
#include "mc/sampler.hpp"
#include "sparse_oracle.hpp"
#include "stats/poisson_binomial.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;

void BM_Moments(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.5,
                                            0.8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pair_moments(u));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Moments)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_RiskRatio(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.5,
                                            0.8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::risk_ratio(u));
  }
}
BENCHMARK(BM_RiskRatio)->Range(8, 4096);

void BM_ExactDistribution(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.5,
                                            0.8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exact_pfd_distribution(u, 2));
  }
}
BENCHMARK(BM_ExactDistribution)->DenseRange(8, 20, 4);

void BM_GridDistribution(benchmark::State& state) {
  const auto u = core::make_many_small_faults_universe(
      static_cast<std::size_t>(state.range(0)), 0.05, 0.3, 0.8, 0.2, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::grid_pfd_distribution(u, 2, 4096));
  }
}
BENCHMARK(BM_GridDistribution)->Range(64, 1024);

// The sparse index-list sampler the mask kernels replaced (the test oracle
// of tests/sparse_oracle.hpp): the baseline of the mask sampler below.
void BM_SampleVersion(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.3,
                                            0.8, 5);
  stats::rng r(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::sample_version(u, r));
  }
}
BENCHMARK(BM_SampleVersion)->Range(16, 1024);

// Bitset engine: exact-stream mask sampler (bit-compatible with
// BM_SampleVersion's rng decisions, but allocation-free and word-packed).
void BM_SampleVersionMaskExact(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.3,
                                            0.8, 5);
  stats::rng r(6);
  core::fault_mask m(u.size());
  for (auto _ : state) {
    mc::sample_version_mask(u, r, m);
    benchmark::DoNotOptimize(m.words());
  }
}
BENCHMARK(BM_SampleVersionMaskExact)->Range(16, 1024);

// Pair PFD: sparse sorted-merge vs fused word-AND + masked q gather.
void BM_PairPfdSparse(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.3,
                                            0.8, 5);
  stats::rng r(6);
  const auto a = sparse::sample_version(u, r);
  const auto b = sparse::sample_version(u, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::pair_pfd(a, b, u));
    benchmark::DoNotOptimize(sparse::common_faults(a, b).empty());
  }
}
BENCHMARK(BM_PairPfdSparse)->Range(16, 1024);

void BM_PairPfdMask(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.3,
                                            0.8, 5);
  stats::rng r(6);
  core::fault_mask ma;
  core::fault_mask mb;
  mc::sample_version_mask(u, r, ma);
  mc::sample_version_mask(u, r, mb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::pair_pfd_stats(ma, mb, u));
  }
}
BENCHMARK(BM_PairPfdMask)->Range(16, 1024);

// End-to-end experiment throughput: the bit-exact reference engine against
// the default fast-simd engine, single-threaded so the engine comparison is
// apples-to-apples (threading multiplies all engines alike), on a random
// n=1024 universe and on a uniform p = 0.5 one, where fast-simd bit-slices
// every word with one draw.  Items processed = sampled version pairs.
void run_experiment_bench(benchmark::State& state, const core::fault_universe& u,
                          mc::sampling_engine engine) {
  mc::experiment_config cfg;
  cfg.samples = 2048;
  cfg.threads = 1;
  cfg.engine = engine;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(mc::run_experiment(u, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.samples));
}

core::fault_universe random_universe() {
  return core::make_random_universe(1024, 0.3, 0.8, 5);
}

core::fault_universe uniform_universe() {
  return core::make_homogeneous_universe(1024, 0.5, 0.8 / 1024.0);
}

void BM_RunExperimentExact(benchmark::State& state) {
  run_experiment_bench(state, random_universe(), mc::sampling_engine::exact);
}
BENCHMARK(BM_RunExperimentExact)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentFastSimd(benchmark::State& state) {
  run_experiment_bench(state, random_universe(), mc::sampling_engine::fast_simd);
}
BENCHMARK(BM_RunExperimentFastSimd)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentExactUniformP(benchmark::State& state) {
  run_experiment_bench(state, uniform_universe(), mc::sampling_engine::exact);
}
BENCHMARK(BM_RunExperimentExactUniformP)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentFastSimdUniformP(benchmark::State& state) {
  run_experiment_bench(state, uniform_universe(), mc::sampling_engine::fast_simd);
}
BENCHMARK(BM_RunExperimentFastSimdUniformP)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PoissonBinomial(benchmark::State& state) {
  const auto u = core::make_random_universe(static_cast<std::size_t>(state.range(0)), 0.3,
                                            0.8, 7);
  const auto p = u.p_values();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::poisson_binomial(p));
  }
}
BENCHMARK(BM_PoissonBinomial)->Range(16, 1024);

void BM_RngUniform(benchmark::State& state) {
  stats::rng r(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.uniform());
  }
}
BENCHMARK(BM_RngUniform);

}  // namespace

RELDIV_BENCHMARK_MAIN()
