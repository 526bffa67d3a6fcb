// P5 (service) — latency of the always-on sweep-service front-end, recorded
// to BENCH_p5.json by bench/run_bench.sh.
//
// * BM_ServiceSubmitToMerged: the cold path — init a small demand run under
//   a fresh service root, publish it on the queue (atomic tmp+rename through
//   the io_env seam), drain it with one in-process long-poll worker pass and
//   memoize the merged tables in the result cache.
// * BM_ServiceMemoizedQuery: the hot path — the same manifest answered from
//   the fingerprint-keyed result cache; no cell is read, let alone computed.
// * BM_ServiceStatusQuery: the operator's progress probe over a
//   half-complete queued run (a pure function of claim records and cell
//   state files).
//
// The memoized-vs-cold ratio is the machine-neutral key counter gated by
// bench/compare_bench.py: it must stay a large multiple, or the cache has
// stopped paying for itself.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "bench_main.hpp"
#include "mc/distributed.hpp"
#include "mc/run_dir.hpp"
#include "mc/service.hpp"

namespace {

using namespace reldiv;
namespace fs = std::filesystem;

/// Small on purpose: the service protocol (queue files, claims, state-file
/// round trips, cache entries) is what's timed, not the estimator.
mc::demand_manifest bench_manifest() {
  mc::demand_manifest m;
  m.target_pfd.reserve(64);
  for (std::size_t t = 0; t < 64; ++t) {
    m.target_pfd.push_back(1e-4 + 1e-6 * static_cast<double>(t % 7));
  }
  m.demands = 500;
  m.seed = 20260809;
  m.window = 32;  // 2 windows
  return m;
}

fs::path fresh_root(const char* tag) {
  static std::uint64_t counter = 0;
  const fs::path root =
      fs::temp_directory_path() /
      ("reldiv_bench_p5_" + std::to_string(::getpid()) + "_" + tag + "_" +
       std::to_string(counter++));
  fs::remove_all(root);
  return root;
}

void BM_ServiceSubmitToMerged(benchmark::State& state) {
  const mc::demand_manifest m = bench_manifest();
  for (auto _ : state) {
    const fs::path root = fresh_root("cold");
    const fs::path dir = mc::runs_dir(root) / "run";
    (void)mc::run_handle::init(m, dir);
    (void)mc::submit_queued_run(root, "run", dir);
    mc::service_config cfg;
    cfg.poll_min = std::chrono::milliseconds(1);
    cfg.poll_max = std::chrono::milliseconds(1);
    cfg.max_polls = 1;  // one empty poll after the run drains, then exit
    const mc::service_report report = mc::run_service_worker(root, cfg);
    mc::result_cache cache(root);
    const mc::cached_result entry = mc::merge_and_store(cache, dir);
    benchmark::DoNotOptimize(entry.csv.data());
    if (report.cells_computed != m.window_count()) {
      state.SkipWithError("service pass left the run incomplete");
    }
    state.PauseTiming();
    fs::remove_all(root);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ServiceSubmitToMerged)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServiceMemoizedQuery(benchmark::State& state) {
  const mc::demand_manifest m = bench_manifest();
  const fs::path root = fresh_root("hot");
  const fs::path dir = mc::runs_dir(root) / "run";
  (void)mc::run_handle::init(m, dir);
  (void)mc::run_pending_cells(dir, {});
  mc::result_cache cache(root);
  (void)mc::merge_and_store(cache, dir);
  const std::uint64_t fp = mc::demand_manifest_fingerprint(m);
  for (auto _ : state) {
    const auto hit = cache.lookup(fp);
    if (!hit) state.SkipWithError("cache miss on a stored fingerprint");
    benchmark::DoNotOptimize(hit->csv.data());
  }
  fs::remove_all(root);
}
BENCHMARK(BM_ServiceMemoizedQuery)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServiceStatusQuery(benchmark::State& state) {
  const mc::demand_manifest m = bench_manifest();
  const fs::path root = fresh_root("status");
  const fs::path dir = mc::runs_dir(root) / "run";
  (void)mc::run_handle::init(m, dir);
  (void)mc::submit_queued_run(root, "run", dir);
  mc::worker_config wcfg;
  wcfg.max_cells = 1;  // half-complete: 1 of 2 windows on disk
  (void)mc::run_pending_cells(dir, wcfg);
  for (auto _ : state) {
    const mc::service_status status = mc::query_service_status(root);
    benchmark::DoNotOptimize(status.cells_done);
  }
  fs::remove_all(root);
}
BENCHMARK(BM_ServiceStatusQuery)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

RELDIV_BENCHMARK_MAIN()
