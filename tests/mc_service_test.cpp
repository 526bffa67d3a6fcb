// mc::sweep_service — the always-on layer: multi-run queue, long-poll
// workers, drain, status and the fingerprint-memoized result cache.  The
// determinism contract is inherited from the run-dir protocol and restated
// here at the service level: however a queue gets drained (one in-process
// worker, a thread racing a late submission, a 3-process fleet with one
// worker SIGKILL'd), every run's merged tables are byte-identical to its
// single-process oracle — and an identical manifest re-submission is served
// from the cache without recomputing anything.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/generators.hpp"
#include "mc/distributed.hpp"
#include "mc/run_dir.hpp"
#include "mc/service.hpp"

namespace mc = reldiv::mc;
namespace core = reldiv::core;
namespace fs = std::filesystem;

namespace {

mc::scenario_axes test_axes() {
  mc::scenario_axes axes;
  axes.universes.emplace_back("grade",
                              core::make_safety_grade_universe(24, 0.0, 0.05, 0.6, 5));
  axes.correlations = {0.0, 0.4};
  axes.overlaps = {1.0, 0.5};
  axes.aliasing = {1, 2};
  axes.budgets = {2'000};
  return axes;  // 8 cells
}

mc::scenario_config test_config() { return {.seed = 31337, .threads = 2, .shards = 0}; }

mc::demand_manifest test_demand_manifest() {
  mc::demand_manifest m;
  m.target_pfd.reserve(600);
  for (std::size_t t = 0; t < 600; ++t) {
    m.target_pfd.push_back(1e-4 + 1e-6 * static_cast<double>(t % 97));
  }
  m.demands = 5'000;
  m.seed = 424242;
  m.window = 64;  // 10 windows
  return m;
}

mc::experiment_manifest test_experiment_manifest() {
  mc::experiment_config cfg;
  cfg.samples = 4'000;
  cfg.seed = 90210;
  cfg.shards = 16;
  return mc::make_experiment_manifest(
      core::make_safety_grade_universe(24, 0.0, 0.05, 0.6, 5), cfg, /*window=*/3);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("reldiv_service_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Init a demand run under runs/<name> and enqueue it.
  fs::path submit_demand(const std::string& name) {
    const fs::path dir = mc::runs_dir(root_) / name;
    (void)mc::run_handle::init(test_demand_manifest(), dir);
    EXPECT_TRUE(mc::submit_queued_run(root_, name, dir));
    return dir;
  }

  fs::path root_;
};

// ---------------------------------------------------------------------------
// Queue protocol
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, SubmissionNamesMustBePlainFilenames) {
  EXPECT_NO_THROW(mc::validate_submission_name("run_01"));
  EXPECT_THROW(mc::validate_submission_name(""), std::invalid_argument);
  EXPECT_THROW(mc::validate_submission_name("a/b"), std::invalid_argument);
  EXPECT_THROW(mc::validate_submission_name("a\\b"), std::invalid_argument);
  EXPECT_THROW(mc::validate_submission_name(".hidden"), std::invalid_argument);
  EXPECT_THROW(mc::validate_submission_name(".."), std::invalid_argument);
}

TEST_F(ServiceTest, SubmitIsAtomicAndDuplicateNamesLoseTheRace) {
  EXPECT_TRUE(mc::submit_queued_run(root_, "alpha", root_ / "runs" / "alpha"));
  // Same name again: the rename_noreplace loses, nothing is clobbered.
  EXPECT_FALSE(mc::submit_queued_run(root_, "alpha", root_ / "elsewhere"));
  const auto queue = mc::queued_runs(root_);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0].name, "alpha");
  EXPECT_EQ(queue[0].run_dir, root_ / "runs" / "alpha");
  // No temp droppings from the losing submission.
  for (const auto& entry : fs::directory_iterator(mc::queue_dir(root_))) {
    EXPECT_TRUE(entry.path().filename().string().ends_with(".run"))
        << entry.path();
  }
}

TEST_F(ServiceTest, QueueOrderIsSubmissionNameOrderNotArrivalOrder) {
  // Enqueue out of lexicographic order; the walk must still be sorted.
  EXPECT_TRUE(mc::submit_queued_run(root_, "charlie", root_ / "c"));
  EXPECT_TRUE(mc::submit_queued_run(root_, "alpha", root_ / "a"));
  EXPECT_TRUE(mc::submit_queued_run(root_, "bravo", root_ / "b"));
  const auto queue = mc::queued_runs(root_);
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue[0].name, "alpha");
  EXPECT_EQ(queue[1].name, "bravo");
  EXPECT_EQ(queue[2].name, "charlie");
}

TEST_F(ServiceTest, DequeueRemovesThePointerButNotTheRunDir) {
  const fs::path dir = submit_demand("gone");
  EXPECT_TRUE(mc::dequeue_run(root_, "gone"));
  EXPECT_FALSE(mc::dequeue_run(root_, "gone"));  // already gone
  EXPECT_TRUE(mc::queued_runs(root_).empty());
  EXPECT_TRUE(fs::exists(dir));  // the run dir itself is untouched
}

TEST_F(ServiceTest, DrainSentinelRoundTrips) {
  EXPECT_FALSE(mc::drain_requested(root_));
  mc::request_drain(root_);
  EXPECT_TRUE(mc::drain_requested(root_));
  mc::request_drain(root_);  // idempotent
  EXPECT_TRUE(mc::drain_requested(root_));
  mc::clear_drain(root_);
  EXPECT_FALSE(mc::drain_requested(root_));
}

// ---------------------------------------------------------------------------
// run_handle facade
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, RunHandleOpensAnyKindAndDispatchesTypedAccess) {
  const fs::path grid_dir = root_ / "grid";
  const fs::path demand_dir = root_ / "demand";
  const fs::path exp_dir = root_ / "exp";
  (void)mc::run_handle::init(test_axes(), test_config(), grid_dir);
  const mc::run_handle inited = mc::run_handle::init(test_demand_manifest(), demand_dir);
  (void)mc::run_handle::init(test_experiment_manifest(), exp_dir);

  const mc::run_handle grid = mc::run_handle::open(grid_dir);
  const mc::run_handle demand = mc::run_handle::open(demand_dir);
  const mc::run_handle exp = mc::run_handle::open(exp_dir);
  EXPECT_EQ(grid.kind(), mc::job_kind::scenario_grid);
  EXPECT_EQ(demand.kind(), mc::job_kind::demand_campaign);
  EXPECT_EQ(exp.kind(), mc::job_kind::experiment_shards);
  EXPECT_EQ(grid.cell_count(), 8u);
  EXPECT_EQ(demand.cell_count(), 10u);
  EXPECT_NE(grid.fingerprint(), demand.fingerprint());
  // init and open agree on the identity, and it is the manifest's own.
  EXPECT_EQ(demand.fingerprint(), inited.fingerprint());
  EXPECT_EQ(demand.fingerprint(), mc::job_fingerprint(test_demand_manifest()));
  EXPECT_EQ(mc::demand_manifest_fingerprint(demand.demand_campaign_manifest()),
            inited.fingerprint());

  // The typed accessors enforce the kind they promise.
  EXPECT_NO_THROW((void)grid.grid_manifest());
  EXPECT_THROW((void)grid.demand_campaign_manifest(), mc::run_dir_error);
  EXPECT_THROW((void)demand.experiment_shards_manifest(), mc::run_dir_error);
  EXPECT_NO_THROW((void)exp.experiment_shards_manifest());
}

TEST_F(ServiceTest, RunHandleMergeMatchesOracleForEveryKind) {
  const mc::demand_manifest m = test_demand_manifest();
  const fs::path dir = root_ / "demand";
  (void)mc::run_handle::init(m, dir);
  const mc::worker_report rep = mc::run_pending_cells(dir, {});
  EXPECT_EQ(rep.computed, m.window_count());

  const mc::run_handle h = mc::run_handle::open(dir);
  const mc::run_handle::result_variant merged = h.merge();
  ASSERT_TRUE(std::holds_alternative<mc::demand_tally>(merged));
  const mc::demand_tally oracle =
      mc::run_demand_campaign(m.target_pfd, m.demands, m.config());
  EXPECT_EQ(std::get<mc::demand_tally>(merged).failures, oracle.failures);

  // merge_tables renders through the same emitters the CLI and cache use.
  const mc::merged_tables tables = h.merge_tables();
  EXPECT_EQ(tables.cells, m.window_count());
  EXPECT_EQ(tables.csv, mc::demand_tally_csv(m, oracle));
  EXPECT_EQ(tables.json, mc::demand_tally_json(oracle));

  // Every kind: the merged tables are the in-process oracle's, byte for byte.
  const std::vector<mc::run_handle::manifest_variant> jobs = {
      mc::sweep_manifest{.axes = test_axes(), .seed = test_config().seed}, m,
      test_experiment_manifest()};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const fs::path job_dir = root_ / ("job" + std::to_string(j));
    const mc::run_handle job = mc::run_handle::init(jobs[j], job_dir);
    (void)mc::run_pending_cells(job_dir, {});
    const mc::merged_tables merged = job.merge_tables();
    const mc::merged_tables single = mc::run_single_process(jobs[j], /*threads=*/2);
    EXPECT_EQ(merged.csv, single.csv) << mc::job_kind_name(job.kind());
    EXPECT_EQ(merged.json, single.json) << mc::job_kind_name(job.kind());
    EXPECT_EQ(merged.cells, job.cell_count());
    EXPECT_EQ(single.cells, job.cell_count());
  }
}

// ---------------------------------------------------------------------------
// cached_result codec + result_cache
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, CachedResultRoundTripsThroughTheCodec) {
  mc::cached_result entry;
  entry.kind = mc::job_kind::experiment_shards;
  entry.fingerprint = 0xdeadbeefcafef00dULL;
  entry.csv = "a,b\n1,2\n";
  entry.json = "{\n  \"a\": 1\n}\n";
  const mc::cached_result back = mc::decode_cached_result(mc::encode_cached_result(entry));
  EXPECT_EQ(back.kind, entry.kind);
  EXPECT_EQ(back.fingerprint, entry.fingerprint);
  EXPECT_EQ(back.csv, entry.csv);
  EXPECT_EQ(back.json, entry.json);
}

TEST_F(ServiceTest, ResultCacheMissesOnAbsentCorruptOrMismatchedEntries) {
  mc::result_cache cache(root_);
  EXPECT_FALSE(cache.lookup(42).has_value());

  mc::cached_result entry;
  entry.kind = mc::job_kind::scenario_grid;
  entry.fingerprint = 42;
  entry.csv = "csv";
  entry.json = "json";
  cache.store(entry);
  ASSERT_TRUE(cache.lookup(42).has_value());
  EXPECT_EQ(cache.lookup(42)->csv, "csv");

  // A torn entry is a miss, never an error or a wrong answer.
  {
    std::ofstream f(cache.entry_path(42), std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  EXPECT_FALSE(cache.lookup(42).has_value());

  // A hand-renamed entry disagrees with its filename: miss.
  cache.store(entry);
  fs::rename(cache.entry_path(42), cache.entry_path(43));
  EXPECT_FALSE(cache.lookup(43).has_value());
}

TEST_F(ServiceTest, MergeAndStoreMemoizesAndHitEqualsRecompute) {
  const fs::path dir = submit_demand("memo");
  (void)mc::run_pending_cells(dir, {});

  mc::result_cache cache(root_);
  const mc::run_handle h = mc::run_handle::open(dir);
  EXPECT_FALSE(cache.lookup(h.fingerprint()).has_value());
  const mc::cached_result stored = mc::merge_and_store(cache, dir);
  const auto hit = cache.lookup(h.fingerprint());
  ASSERT_TRUE(hit.has_value());

  // Cache hit vs recompute: byte-for-byte the same tables.
  const mc::merged_tables recomputed = h.merge_tables();
  EXPECT_EQ(hit->csv, recomputed.csv);
  EXPECT_EQ(hit->json, recomputed.json);
  EXPECT_EQ(stored.csv, recomputed.csv);
  EXPECT_EQ(hit->kind, mc::job_kind::demand_campaign);
}

// ---------------------------------------------------------------------------
// Long-poll worker
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, WorkerDrainsAnEmptyQueueAfterMaxPolls) {
  mc::service_config cfg;
  cfg.poll_min = std::chrono::milliseconds(1);
  cfg.poll_max = std::chrono::milliseconds(2);
  cfg.max_polls = 3;
  const mc::service_report rep = mc::run_service_worker(root_, cfg);
  EXPECT_EQ(rep.runs_served, 0u);
  EXPECT_EQ(rep.cells_computed, 0u);
  EXPECT_EQ(rep.polls, 3u);
  EXPECT_FALSE(rep.drained);
}

TEST_F(ServiceTest, WorkerPicksUpARunSubmittedAfterItStarted) {
  // Start the long-poll worker FIRST, on an empty queue.
  mc::service_config cfg;
  cfg.poll_min = std::chrono::milliseconds(1);
  cfg.poll_max = std::chrono::milliseconds(10);
  mc::service_report report;
  std::thread worker([&] { report = mc::run_service_worker(root_, cfg); });

  // Submit while it is polling, then ask it to drain once the run is done.
  const fs::path dir = submit_demand("late");
  while (!mc::missing_cells(dir).empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mc::request_drain(root_);
  worker.join();

  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.runs_served, 1u);
  EXPECT_EQ(report.cells_computed, test_demand_manifest().window_count());

  // The merged result is the single-process oracle, bit for bit.
  const mc::demand_manifest m = test_demand_manifest();
  const mc::demand_tally oracle =
      mc::run_demand_campaign(m.target_pfd, m.demands, m.config());
  EXPECT_EQ(std::get<mc::demand_tally>(mc::run_handle::open(dir).merge()).failures,
            oracle.failures);
}

TEST_F(ServiceTest, DrainedWorkerLeavesNoClaimsAndNoTmpFiles) {
  (void)submit_demand("hygiene_a");
  (void)submit_demand("hygiene_b");
  mc::request_drain(root_);  // raised BEFORE the worker starts

  mc::service_config cfg;
  cfg.poll_min = std::chrono::milliseconds(1);
  cfg.poll_max = std::chrono::milliseconds(2);
  const mc::service_report rep = mc::run_service_worker(root_, cfg);
  EXPECT_TRUE(rep.drained);

  std::size_t leftovers = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".claim") || name.find(".tmp.") != std::string::npos) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0u);
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, StatusReportsExactCellCountsPerQueuedRun) {
  const fs::path dir = submit_demand("partial");
  mc::worker_config wcfg;
  wcfg.max_cells = 3;
  (void)mc::run_pending_cells(dir, wcfg);

  const mc::service_status status = mc::query_service_status(root_);
  ASSERT_EQ(status.runs.size(), 1u);
  EXPECT_EQ(status.runs[0].name, "partial");
  EXPECT_EQ(status.runs[0].cells_done, 3u);
  EXPECT_EQ(status.runs[0].cells_total, 10u);
  EXPECT_EQ(status.runs[0].quarantined, 0u);
  EXPECT_TRUE(status.runs[0].readable);
  EXPECT_EQ(status.cells_done, 3u);
  EXPECT_EQ(status.cells_total, 10u);
  EXPECT_FALSE(status.draining);

  const std::string json = status.to_json();
  EXPECT_NE(json.find("\"cells_done\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cells_total\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"fraction_done\": 0.2999"), std::string::npos);
}

TEST_F(ServiceTest, StatusCountsDistinctClaimOwnersAsActiveWorkers) {
  const fs::path dir = submit_demand("claimed");
  // Two claims by one owner, one by another: 2 distinct active workers.
  const auto write_claim = [&](std::uint64_t index, const std::string& host, long pid) {
    std::ofstream f(mc::cell_claim_path(dir, index), std::ios::binary);
    f << "host " << host << "\npid " << pid << "\ntime 0\n";
  };
  write_claim(0, "hostA", 111);
  write_claim(1, "hostA", 111);
  write_claim(2, "hostB", 222);

  const mc::service_status status = mc::query_service_status(root_);
  ASSERT_EQ(status.runs.size(), 1u);
  EXPECT_EQ(status.runs[0].active_workers, 2u);
  EXPECT_EQ(status.active_workers, 2u);
}

TEST_F(ServiceTest, StatusFlagsAnUnreadableRunWithoutThrowing) {
  EXPECT_TRUE(mc::submit_queued_run(root_, "ghost", root_ / "runs" / "ghost"));
  const mc::service_status status = mc::query_service_status(root_);
  ASSERT_EQ(status.runs.size(), 1u);
  EXPECT_FALSE(status.runs[0].readable);
  EXPECT_EQ(status.cells_total, 0u);
  EXPECT_NE(status.to_json().find("\"readable\": false"), std::string::npos);
}

#ifdef RELDIV_SWEEP_BIN
// ---------------------------------------------------------------------------
// Fleet end-to-end: 3 long-poll worker processes, two queued runs of
// different kinds, one worker SIGKILL'd mid-run — both merged results
// byte-identical to their single-process oracles.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, FleetDrainsTwoKindsThroughASigkillByteIdenticalToOracles) {
  const mc::demand_manifest dm = test_demand_manifest();
  const mc::experiment_manifest em = test_experiment_manifest();
  const fs::path demand_dir = mc::runs_dir(root_) / "a_demand";
  const fs::path exp_dir = mc::runs_dir(root_) / "b_exp";
  (void)mc::run_handle::init(dm, demand_dir);
  (void)mc::run_handle::init(em, exp_dir);
  ASSERT_TRUE(mc::submit_queued_run(root_, "a_demand", demand_dir));
  ASSERT_TRUE(mc::submit_queued_run(root_, "b_exp", exp_dir));

  const std::vector<std::string> args = {
      "reldiv_sweep", "serve",         "--root", root_.string(), "--workers", "0",
      "--quiet",      "--poll-min-ms", "1",      "--poll-max-ms", "20"};
  const std::vector<int> pids = mc::spawn_processes(RELDIV_SWEEP_BIN, args, 3);
  ASSERT_EQ(pids.size(), 3u);

  // SIGKILL one worker mid-run; its siblings reap the dead claim (the pid is
  // provably dead on this host) and finish the cell themselves.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (!mc::missing_cells(demand_dir).empty() || !mc::missing_cells(exp_dir).empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "fleet stalled";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  mc::request_drain(root_);
  const std::vector<int> codes = mc::wait_sweep_workers(pids);
  EXPECT_EQ(codes[0], 128 + SIGKILL);
  EXPECT_EQ(codes[1], 0);
  EXPECT_EQ(codes[2], 0);

  // Byte-identical to the single-process oracles, both kinds.
  const mc::demand_tally demand_oracle =
      mc::run_demand_campaign(dm.target_pfd, dm.demands, dm.config());
  const mc::experiment_result exp_oracle = mc::run_experiment(em.universe, em.config());
  EXPECT_EQ(mc::run_handle::open(demand_dir).merge_tables().csv,
            mc::demand_tally_csv(dm, demand_oracle));
  EXPECT_EQ(mc::run_handle::open(exp_dir).merge_tables().csv,
            mc::experiment_result_csv(exp_oracle));
  EXPECT_TRUE(mc::quarantined_cells(demand_dir).empty());
  EXPECT_TRUE(mc::quarantined_cells(exp_dir).empty());
}
#endif  // RELDIV_SWEEP_BIN

}  // namespace
