// P4 — the fast-simd engine (counter-based generation + p-sorted universe
// relayout + runtime SIMD dispatch) against the bit-exact `exact` engine, end
// to end.
//
// The headline case is the heterogeneous n=1024 universe whose p values are
// drawn from a small palette but scattered so no 64-fault word is uniform:
// fast-simd's relayout gathers equal-p faults into whole words and
// bit-slices almost all of them.  The scalar-cap pair isolates the
// relayout+counter contribution from the SIMD kernels; the random-universe
// pair isolates the SIMD gain with no sliceable words at all.  Each `exact`
// baseline runs at the same SIMD cap as the fast-simd variant it is divided
// by, so every ratio keeps one SIMD class.
//
// The scenario pair measures the other two SIMD kernel families:
// scenario_ci.spec's 256-fault mixture cell through run_scenario_cell, once
// at the scalar cap and once uncapped, where the xoshiro pair step advances
// eight shard streams per AVX-512 instruction (four per AVX2 instruction)
// and sums each pair's θ1 and θ2 as it draws.  Both produce the same bits.
//
// The pair-step rows split out each engine's per-pair work on one lane
// group: BM_XoshiroPairStep* draws and records pair steps of eight shard
// streams on that cell's universe and ρ, and BM_CounterPairStep* draws and
// records fast-simd pair steps of eight counter streams on perfbench
// experiment_rare's universe (256 safety-grade faults, p <= 1e-3), each
// dispatched, at the avx2 cap and at the scalar cap.
//
// The *Avx2 twins of the random-universe runs and the scenario cell run at
// the avx2 cap, so on an AVX-512 host "dispatched vs avx2 cap" is the
// AVX-512 kernels' own gain (the random universe, because its paired32 words
// are where the counter kernel runs; the heterogeneous one is mostly scalar
// slice words); on an AVX2 host the twins equal their uncapped variants.
//
// All variants run single-threaded so the engine comparison divides out the
// machine; BENCH_p4.json records the ratios and the SIMD level the uncapped
// variants ran at (context.simd_level), and bench/compare_bench.py gates
// them: ratios of uncapped variants only against a baseline at the same
// level, ratios of the *Avx2 twins against any baseline at avx2 or above.

#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "core/fault_universe.hpp"
#include "core/generators.hpp"
#include "core/simd_sampler.hpp"
#include "mc/correlated.hpp"
#include "mc/experiment.hpp"
#include "mc/scenario.hpp"
#include "stats/counter_rng.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;

/// Heterogeneous universe: an 8-value p palette (k/16, thresholds with >= 49
/// trailing zero bits, so a uniform word slices in <= 5 draws) scattered by a
/// deterministic Fisher-Yates so no word is uniform until the p-sorted
/// relayout re-gathers them.
core::fault_universe make_scattered_palette_universe(std::size_t n,
                                                     std::uint64_t seed) {
  std::vector<core::fault_atom> atoms;
  atoms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = static_cast<double>(i % 8 + 1) / 16.0;
    atoms.push_back({p, 0.5 / static_cast<double>(n)});
  }
  stats::rng r(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(atoms[i - 1], atoms[r.below(i)]);
  }
  return core::fault_universe(std::move(atoms));
}

/// One single-threaded engine run per iteration, at SIMD cap `cap` (none:
/// the dispatched level).
void run_engine_bench(benchmark::State& state, const core::fault_universe& u,
                      mc::sampling_engine engine,
                      std::optional<core::simd_level> cap = std::nullopt) {
  if (cap) core::set_simd_level_cap(*cap);
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
  core::clear_simd_level_cap();
}

core::fault_universe hetero_universe() { return make_scattered_palette_universe(1024, 11); }

core::fault_universe random_universe() {
  return core::make_random_universe(1024, 0.3, 0.8, 5);
}

// --- Heterogeneous n=1024: relayout + slice + SIMD --------------------------

void BM_RunExperimentExactHetero(benchmark::State& state) {
  run_engine_bench(state, hetero_universe(), mc::sampling_engine::exact);
}
BENCHMARK(BM_RunExperimentExactHetero)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentFastSimdHetero(benchmark::State& state) {
  run_engine_bench(state, hetero_universe(), mc::sampling_engine::fast_simd);
}
BENCHMARK(BM_RunExperimentFastSimdHetero)->Unit(benchmark::kMillisecond)->UseRealTime();

// Scalar cap: the relayout + counter engine with the SIMD kernels forced
// off, against `exact` with its SIMD fold forced off, so the ratio holds on
// hosts without AVX2.
void BM_RunExperimentExactScalarHetero(benchmark::State& state) {
  run_engine_bench(state, hetero_universe(), mc::sampling_engine::exact,
                   core::simd_level::scalar);
}
BENCHMARK(BM_RunExperimentExactScalarHetero)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentFastSimdScalarHetero(benchmark::State& state) {
  run_engine_bench(state, hetero_universe(), mc::sampling_engine::fast_simd,
                   core::simd_level::scalar);
}
BENCHMARK(BM_RunExperimentFastSimdScalarHetero)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Random n=1024: no sliceable words, pure SIMD kernel gain ---------------

void BM_RunExperimentExactRandom(benchmark::State& state) {
  run_engine_bench(state, random_universe(), mc::sampling_engine::exact);
}
BENCHMARK(BM_RunExperimentExactRandom)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentFastSimdRandom(benchmark::State& state) {
  run_engine_bench(state, random_universe(), mc::sampling_engine::fast_simd);
}
BENCHMARK(BM_RunExperimentFastSimdRandom)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentExactRandomAvx2(benchmark::State& state) {
  run_engine_bench(state, random_universe(), mc::sampling_engine::exact,
                   core::simd_level::avx2);
}
BENCHMARK(BM_RunExperimentExactRandomAvx2)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunExperimentFastSimdRandomAvx2(benchmark::State& state) {
  run_engine_bench(state, random_universe(), mc::sampling_engine::fast_simd,
                   core::simd_level::avx2);
}
BENCHMARK(BM_RunExperimentFastSimdRandomAvx2)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- scenario_ci mixture cell: the xoshiro pair step vs its scalar level

/// scenario_ci.spec's `many_small` universe (256 faults) at rho = 0.25,
/// omega = 1, aliasing 1, with the spec's 10^6-pair budget and seed.
void run_mixture_cell_bench(benchmark::State& state) {
  mc::scenario_axes axes;
  axes.universes.emplace_back(
      "many_small", core::make_many_small_faults_universe(256, 0.05, 0.3, 0.8, 0.2, 12));
  axes.correlations = {0.25};
  axes.budgets = {1'000'000};
  const mc::scenario_config cfg{.seed = 2026, .threads = 1};
  const std::vector<mc::scenario_cell> cells = mc::enumerate_cells(axes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::run_scenario_cell(axes, cfg, cells[0], 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells[0].samples));
}

void BM_ScenarioMixtureCellScalar(benchmark::State& state) {
  core::set_simd_level_cap(core::simd_level::scalar);
  run_mixture_cell_bench(state);
  core::clear_simd_level_cap();
}
BENCHMARK(BM_ScenarioMixtureCellScalar)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ScenarioMixtureCellLanes(benchmark::State& state) {
  core::clear_simd_level_cap();
  run_mixture_cell_bench(state);
}
BENCHMARK(BM_ScenarioMixtureCellLanes)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ScenarioMixtureCellAvx2(benchmark::State& state) {
  core::set_simd_level_cap(core::simd_level::avx2);
  run_mixture_cell_bench(state);
  core::clear_simd_level_cap();
}
BENCHMARK(BM_ScenarioMixtureCellAvx2)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- the per-pair work of one lane group: the cell's and fast-simd's -------

/// scenario_ci.spec's `many_small` universe, as the cell above builds it.
core::fault_universe many_small_universe() {
  return core::make_many_small_faults_universe(256, 0.05, 0.3, 0.8, 0.2, 12);
}

/// Lane steps per iteration: 125 steps of eight lanes are 1000 pairs, so an
/// iteration's real_time in microseconds reads as nanoseconds per pair.
constexpr int kStepsPerIteration = 125;

/// Eight shard streams of a cell's first lane group, as run_xoshiro_lanes
/// opens them.
core::xoshiro_lanes first_group_lanes(std::uint64_t seed) {
  core::xoshiro_lanes lanes;
  stats::rng walker(seed);
  for (unsigned l = 0; l < core::kXoshiroLanes; ++l) {
    lanes.set_lane(l, walker);
    walker.jump();
  }
  return lanes;
}

/// 2of2 pair steps (ω = 1) of the ρ = 0.25 mixture (stress 1.8) on all
/// eight lanes, each drawn and recorded by one xoshiro pair step, at SIMD
/// cap `cap` (none: the dispatched level).
void run_pair_step_bench(benchmark::State& state, std::optional<core::simd_level> cap) {
  if (cap) core::set_simd_level_cap(*cap);
  const core::simd_level level = core::active_simd_level();
  const core::fault_universe u = many_small_universe();
  const mc::common_cause_mixture mixture(u, 0.25, 1.8);
  core::xoshiro_lanes lanes = first_group_lanes(2026);
  std::vector<std::uint64_t> hits;
  core::accumulator_lanes acc;
  for (auto _ : state) {
    for (int step = 0; step < kStepsPerIteration; ++step) {
      core::xoshiro_pair_step_lanes(lanes, mixture.lane_tables(), hits, acc, 2, 2, 1.0,
                                    u.q_array(), core::kXoshiroLanes, level);
    }
    benchmark::DoNotOptimize(acc.theta2.m1.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kStepsPerIteration *
                          core::kXoshiroLanes);
  core::clear_simd_level_cap();
}

void BM_XoshiroPairStep(benchmark::State& state) { run_pair_step_bench(state, std::nullopt); }
BENCHMARK(BM_XoshiroPairStep)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_XoshiroPairStepAvx2(benchmark::State& state) {
  run_pair_step_bench(state, core::simd_level::avx2);
}
BENCHMARK(BM_XoshiroPairStepAvx2)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_XoshiroPairStepScalar(benchmark::State& state) {
  run_pair_step_bench(state, core::simd_level::scalar);
}
BENCHMARK(BM_XoshiroPairStepScalar)->Unit(benchmark::kMicrosecond)->UseRealTime();

/// fast-simd pair steps of eight counter streams, the first lane group of
/// a run at seed 2026, on perfbench experiment_rare's universe relaid out as
/// the engine relays it, at SIMD cap `cap` (none: the dispatched level).
void run_counter_step_bench(benchmark::State& state, std::optional<core::simd_level> cap) {
  if (cap) core::set_simd_level_cap(*cap);
  const core::simd_level level = core::active_simd_level();
  const core::fault_universe u =
      core::make_p_sorted_permutation(core::make_safety_grade_universe(256, 0.0, 1e-3, 0.6, 13))
          .universe;
  const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
  std::array<std::uint64_t, core::kXoshiroLanes> keys{};
  for (unsigned l = 0; l < core::kXoshiroLanes; ++l) keys[l] = stats::counter_stream_key(2026, l);
  core::accumulator_lanes acc;
  std::uint64_t pair = 0;
  for (auto _ : state) {
    for (int step = 0; step < kStepsPerIteration; ++step) {
      core::counter_pair_step_lanes(plan, u, keys, pair++, acc, core::kXoshiroLanes, level);
    }
    benchmark::DoNotOptimize(acc.theta2.m1.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kStepsPerIteration *
                          core::kXoshiroLanes);
  core::clear_simd_level_cap();
}

void BM_CounterPairStep(benchmark::State& state) { run_counter_step_bench(state, std::nullopt); }
BENCHMARK(BM_CounterPairStep)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_CounterPairStepAvx2(benchmark::State& state) {
  run_counter_step_bench(state, core::simd_level::avx2);
}
BENCHMARK(BM_CounterPairStepAvx2)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_CounterPairStepScalar(benchmark::State& state) {
  run_counter_step_bench(state, core::simd_level::scalar);
}
BENCHMARK(BM_CounterPairStepScalar)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

RELDIV_BENCHMARK_MAIN()
