#pragma once
// main() of the google-benchmark perf binaries (bench_p1_perf,
// bench_runner_scaling, bench_campaign_scaling, bench_p4_simd,
// bench_p5_service): it records
// the SIMD level every uncapped variant runs at (RELDIV_SIMD applies) as
// context.simd_level.  bench/compare_bench.py gates ratios of uncapped
// variants only between runs that report the same level, and ratios of the
// AVX2-capped twins only when both report avx2 or above.

#include <benchmark/benchmark.h>

#include "core/simd_sampler.hpp"

#define RELDIV_BENCHMARK_MAIN()                                             \
  int main(int argc, char** argv) {                                         \
    benchmark::Initialize(&argc, argv);                                     \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;       \
    benchmark::AddCustomContext(                                            \
        "simd_level",                                                       \
        reldiv::core::simd_level_name(reldiv::core::active_simd_level()));  \
    benchmark::RunSpecifiedBenchmarks();                                    \
    benchmark::Shutdown();                                                  \
    return 0;                                                               \
  }
