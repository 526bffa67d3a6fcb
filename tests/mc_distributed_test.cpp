// mc::distributed — the multi-process sweep driver.  The contract under
// test: however a run directory gets filled (one process, many processes,
// interrupted and resumed, corrupted and healed), the merged grid_result is
// bit-identical to the single-process run_scenario_grid for the same
// axes/config.
#include "mc/distributed.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <variant>

#include "core/generators.hpp"
#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"

namespace mc = reldiv::mc;
namespace core = reldiv::core;
namespace fs = std::filesystem;

namespace {

mc::scenario_axes test_axes() {
  mc::scenario_axes axes;
  axes.universes.emplace_back("grade",
                              core::make_safety_grade_universe(24, 0.0, 0.05, 0.6, 5));
  axes.universes.emplace_back("small",
                              core::make_many_small_faults_universe(64, 0.05, 0.3, 0.8, 0.2, 6));
  axes.correlations = {0.0, 0.4};
  axes.overlaps = {1.0, 0.5};
  axes.aliasing = {1, 2};
  axes.budgets = {2'000};
  return axes;  // 16 cells
}

mc::scenario_config test_config() { return {.seed = 31337, .threads = 2, .shards = 0}; }

/// The run directory's typed merge.
mc::grid_result merged_grid(const fs::path& dir) {
  return std::get<mc::grid_result>(mc::run_handle::open(dir).merge());
}

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified so concurrent test processes (parallel CI builds on one
    // runner) can't remove_all each other's live run directories.
    dir_ = fs::temp_directory_path() /
           ("reldiv_distributed_test_" + std::to_string(::getpid()) + "_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(DistributedTest, InitWritesManifestAndJsonMirror) {
  const mc::run_handle h = mc::run_handle::init(test_axes(), test_config(), dir_);
  const mc::sweep_manifest& m = h.grid_manifest();
  EXPECT_EQ(h.cell_count(), 16u);
  EXPECT_EQ(m.cell_count, 16u);
  EXPECT_EQ(m.seed, 31337u);
  EXPECT_TRUE(fs::exists(mc::manifest_path(dir_)));
  EXPECT_FALSE(fs::exists(dir_ / "manifest.json"));  // describe is the JSON view
  EXPECT_TRUE(fs::exists(mc::cells_dir(dir_)));

  const mc::run_handle loaded = mc::run_handle::open(dir_);
  EXPECT_EQ(mc::manifest_fingerprint(loaded.grid_manifest()), mc::manifest_fingerprint(m));
  EXPECT_EQ(loaded.fingerprint(), h.fingerprint());

  // Re-init with the same sweep resumes; with a different seed it refuses.
  EXPECT_NO_THROW((void)mc::run_handle::init(test_axes(), test_config(), dir_));
  mc::scenario_config other = test_config();
  other.seed = 1;
  EXPECT_THROW((void)mc::run_handle::init(test_axes(), other, dir_), mc::run_dir_error);
  // threads is a throughput knob, not identity: changing it still resumes.
  mc::scenario_config threads = test_config();
  threads.threads = 7;
  EXPECT_NO_THROW((void)mc::run_handle::init(test_axes(), threads, dir_));
}

TEST_F(DistributedTest, InfeasibleMixtureIsRefusedBeforeAnythingIsWritten) {
  // rho 0.6 at the default stress 1.8: rho*stress > 1, so no relaxed p keeps
  // these universes' marginals.  init refuses the grid up front instead of
  // writing a manifest whose cells throw in every worker that reaches them.
  mc::scenario_axes axes = test_axes();
  axes.correlations = {0.0, 0.6};
  EXPECT_THROW((void)mc::run_handle::init(axes, test_config(), dir_), std::invalid_argument);
  EXPECT_FALSE(fs::exists(mc::manifest_path(dir_)));
}

TEST_F(DistributedTest, WorkerFillsDirectoryAndMergeEqualsSingleProcess) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);

  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 16u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(mc::missing_cells(dir_).empty());

  const mc::grid_result merged = merged_grid(dir_);
  const mc::grid_result single = mc::run_scenario_grid(axes, cfg);
  EXPECT_EQ(merged.to_csv(), single.to_csv());
  EXPECT_EQ(merged.to_json(), single.to_json());

  // A second worker pass is a no-op: everything reads as done.
  const auto again = mc::run_pending_cells(dir_);
  EXPECT_EQ(again.computed, 0u);
  EXPECT_EQ(again.skipped, 16u);
}

TEST_F(DistributedTest, InterruptedRunResumesBitIdentical) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);

  // "Kill" the worker after 5 cells: exactly the surviving-state-files
  // situation a SIGKILL leaves behind.
  const auto partial = mc::run_pending_cells(dir_, /*max_cells=*/5);
  EXPECT_EQ(partial.computed, 5u);
  EXPECT_EQ(mc::missing_cells(dir_).size(), 11u);
  EXPECT_THROW((void)merged_grid(dir_), mc::run_dir_error);

  const auto resumed = mc::run_pending_cells(dir_);
  EXPECT_EQ(resumed.computed, 11u);
  EXPECT_EQ(resumed.skipped, 5u);

  const mc::grid_result merged = merged_grid(dir_);
  const mc::grid_result single = mc::run_scenario_grid(axes, cfg);
  EXPECT_EQ(merged.to_csv(), single.to_csv());
  EXPECT_EQ(merged.to_json(), single.to_json());
}

// A pid far past Linux's pid_max: kill(pid, 0) reports ESRCH, so a claim
// recording it on THIS host is provably dead.
constexpr long kDeadPid = 999'999'999;

TEST_F(DistributedTest, StaleClaimsAreSkippedThenCleaned) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);

  // A claim left by a killed local worker makes cell 2 look owned — but its
  // recorded pid is provably dead on this host, so the worker reaps it
  // inline (no lease wait, no coordinator) and computes every cell.
  std::ofstream(mc::cell_claim_path(dir_, 2))
      << "host " << mc::claim_host_name() << "\npid " << kDeadPid << "\ntime 0\n";
  const fs::path orphan_tmp =
      mc::cells_dir(dir_) / ("cell_000003.state.tmp." + mc::claim_host_name() + "." +
                             std::to_string(kDeadPid));
  std::ofstream(orphan_tmp) << "partial";
  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 16u);
  EXPECT_TRUE(mc::missing_cells(dir_).empty());
  EXPECT_FALSE(fs::exists(mc::cell_claim_path(dir_, 2)));

  // The orphaned temp blocks nothing, so only the coordinator sweep — same
  // dead-owner rule — bothers removing it.
  EXPECT_TRUE(fs::exists(orphan_tmp));
  mc::clean_stale_claims(dir_);
  EXPECT_FALSE(fs::exists(orphan_tmp));
  EXPECT_EQ(merged_grid(dir_).to_csv(), mc::run_scenario_grid(axes, cfg).to_csv());
}

TEST_F(DistributedTest, ForeignHostClaimHonorsLeaseTtl) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);

  // A claim from another host whose pid we cannot probe: inside its lease it
  // must survive any clean_stale_claims sweep (the worker may be alive over
  // there), and workers must keep skipping the cell it guards.
  const fs::path claim = mc::cell_claim_path(dir_, 4);
  std::ofstream(claim) << "host some-other-host\npid 1234\ntime 0\n";
  mc::clean_stale_claims(dir_);
  EXPECT_TRUE(fs::exists(claim));

  (void)mc::run_pending_cells(dir_);
  EXPECT_EQ(mc::missing_cells(dir_), std::vector<std::uint64_t>{4});

  // Once the lease expires the claim is fair game even though its owner is
  // unknown — and the WORKER reaps it itself (no coordinator sweep needed:
  // a coordinator-less fleet must recover a lost host's cells on its own).
  fs::last_write_time(claim,
                      fs::file_time_type::clock::now() - 2 * mc::kClaimLeaseTtl);
  (void)mc::run_pending_cells(dir_);
  EXPECT_FALSE(fs::exists(claim));
  EXPECT_TRUE(mc::missing_cells(dir_).empty());
}

TEST_F(DistributedTest, LiveLocalClaimIsNotReaped) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);

  // Our own live pid: clean_stale_claims must leave the claim alone — the
  // rename-claim protocol's whole point is that live owners keep their cell.
  const fs::path claim = mc::cell_claim_path(dir_, 0);
  std::ofstream(claim) << "host " << mc::claim_host_name() << "\npid " << ::getpid()
                       << "\ntime 0\n";
  mc::clean_stale_claims(dir_);
  EXPECT_TRUE(fs::exists(claim));
  fs::remove(claim);
}

TEST_F(DistributedTest, UnparseableClaimFallsBackToLease) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);

  // Garbage content (e.g. a pre-lease-format claim): only the TTL rule may
  // reap it.
  const fs::path claim = mc::cell_claim_path(dir_, 1);
  std::ofstream(claim) << "???";
  mc::clean_stale_claims(dir_);
  EXPECT_TRUE(fs::exists(claim));
  fs::last_write_time(claim,
                      fs::file_time_type::clock::now() - 2 * mc::kClaimLeaseTtl);
  mc::clean_stale_claims(dir_);
  EXPECT_FALSE(fs::exists(claim));
}

TEST_F(DistributedTest, OverflowingOrphanPidSuffixFallsBackToLease) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);

  // Orphan temp names carry their owner's pid as a filename suffix.  A
  // suffix that overflows `long` (or a crafted negative one) must parse as
  // "owner unknown" — handled by the lease TTL, never a throw out of the
  // sweep and never a probe of pid -1.
  const fs::path overflow_tmp =
      mc::cells_dir(dir_) / ("cell_000003.state.tmp." + mc::claim_host_name() +
                             ".99999999999999999999999999999");
  const fs::path negative_tmp =
      mc::cells_dir(dir_) /
      ("cell_000004.state.tmp." + mc::claim_host_name() + ".-1");
  std::ofstream(overflow_tmp) << "partial";
  std::ofstream(negative_tmp) << "partial";

  // Fresh + unknown owner: both survive a sweep.
  mc::clean_stale_claims(dir_);
  EXPECT_TRUE(fs::exists(overflow_tmp));
  EXPECT_TRUE(fs::exists(negative_tmp));

  // Expired lease: the TTL rule reclaims them regardless of the bad owner.
  for (const fs::path& p : {overflow_tmp, negative_tmp}) {
    fs::last_write_time(p, fs::file_time_type::clock::now() - 2 * mc::kClaimLeaseTtl);
  }
  mc::clean_stale_claims(dir_);
  EXPECT_FALSE(fs::exists(overflow_tmp));
  EXPECT_FALSE(fs::exists(negative_tmp));
}

std::string own_claim_body() {
  return "host " + mc::claim_host_name() + "\npid " + std::to_string(::getpid()) +
         "\ntime 0\n";
}

// The acceptance case for lease heartbeats: a cell whose runtime exceeds
// the lease TTL completes without being reaped.  Shrunken TTL (1 s) so the
// claim is held for ~2.5 lease lifetimes while an adversarial coordinator
// sweeps continuously — the heartbeat's mtime renewals are the only thing
// keeping it alive (the TTL rule reaps aged claims even for live local
// owners; that is exactly why workers must renew).
TEST_F(DistributedTest, HeartbeatRenewalOutlivesTheLeaseTtl) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);
  const auto ttl = std::chrono::seconds{1};
  const fs::path claim = mc::cell_claim_path(dir_, 3);
  const std::string body = own_claim_body();
  std::ofstream(claim) << body;

  mc::claim_heartbeat heartbeat(claim, body, std::chrono::milliseconds{100});
  std::size_t honored = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds{2'500};
  while (std::chrono::steady_clock::now() < deadline) {
    honored += mc::clean_stale_claims(dir_, ttl).claims_honored;
    ASSERT_TRUE(fs::exists(claim)) << "sweep reaped an actively renewed claim";
    std::this_thread::sleep_for(std::chrono::milliseconds{200});
  }
  heartbeat.stop();
  EXPECT_FALSE(heartbeat.lost());
  EXPECT_GT(heartbeat.beats(), 0u);
  EXPECT_GT(honored, 0u);

  // Once renewals stop, filesystem-clock ageing governs again: backdate the
  // mtime past the TTL and the next sweep reaps it, live owner or not.
  fs::last_write_time(claim, fs::file_time_type::clock::now() - 2 * ttl);
  EXPECT_EQ(mc::clean_stale_claims(dir_, ttl).claims_reaped, 1u);
  EXPECT_FALSE(fs::exists(claim));
}

TEST_F(DistributedTest, ReapedClaimStopsTheHeartbeatInsteadOfResurrecting) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);
  const fs::path claim = mc::cell_claim_path(dir_, 5);
  const std::string body = own_claim_body();
  std::ofstream(claim) << body;

  mc::claim_heartbeat heartbeat(claim, body, std::chrono::milliseconds{50});
  auto wait_until = [](auto&& pred) {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (!pred() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
  };
  wait_until([&] { return heartbeat.beats() > 0; });
  ASSERT_GT(heartbeat.beats(), 0u);

  // A sweep (or a rival worker) reaps the claim out from under us: the next
  // renewal must notice and fail cleanly — NEVER recreate the claim, which
  // would steal the cell back from whoever legitimately owns it now.
  fs::remove(claim);
  wait_until([&] { return heartbeat.lost(); });
  EXPECT_TRUE(heartbeat.lost());
  heartbeat.stop();
  EXPECT_FALSE(fs::exists(claim)) << "renewal must never resurrect a reaped claim";
}

TEST_F(DistributedTest, WorkerWithShrunkenTtlSurvivesConcurrentSweeps) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);

  // A coordinator hammering clean_stale_claims with the same shrunken TTL
  // the worker renews against: no live claim may be reaped, every cell
  // lands, and the merge is still bit-identical to the oracle.
  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    while (!done.load()) {
      (void)mc::clean_stale_claims(dir_, std::chrono::seconds{1});
      std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
  });
  mc::worker_config wcfg;
  wcfg.lease_ttl = std::chrono::seconds{1};
  const auto report = mc::run_pending_cells(dir_, wcfg);
  done = true;
  sweeper.join();

  EXPECT_EQ(report.computed, 16u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(merged_grid(dir_).to_csv(), mc::run_scenario_grid(axes, cfg).to_csv());
}

TEST_F(DistributedTest, ClaimSweepReportCountsEachOutcome) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);

  // One provably-dead local claim, one orphaned .tmp, one live foreign
  // lease: the sweep report must account for each fate separately.
  std::ofstream(mc::cell_claim_path(dir_, 0))
      << "host " << mc::claim_host_name() << "\npid " << kDeadPid << "\ntime 0\n";
  const fs::path orphan =
      mc::cells_dir(dir_) / ("cell_000001.state.tmp." + mc::claim_host_name() + "." +
                             std::to_string(kDeadPid));
  std::ofstream(orphan) << "partial";
  std::ofstream(mc::cell_claim_path(dir_, 2)) << "host some-other-host\npid 1\ntime 0\n";

  const mc::claim_sweep_report report = mc::clean_stale_claims(dir_);
  EXPECT_EQ(report.claims_reaped, 1u);
  EXPECT_EQ(report.tmps_removed, 1u);
  EXPECT_EQ(report.claims_honored, 1u);
  EXPECT_FALSE(fs::exists(mc::cell_claim_path(dir_, 0)));
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(mc::cell_claim_path(dir_, 2)));
}

TEST_F(DistributedTest, CorruptCellFileIsRecomputed) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);
  (void)mc::run_pending_cells(dir_);

  // Flip one byte in a completed cell: it must read as "not done" ...
  const fs::path victim = mc::cell_state_path(dir_, 7);
  std::string blob = mc::read_file(victim);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x10);
  mc::write_file_atomic(victim, blob);
  EXPECT_EQ(mc::missing_cells(dir_), std::vector<std::uint64_t>{7});
  EXPECT_THROW((void)merged_grid(dir_), mc::run_dir_error);

  // ... and a resume heals it, landing on the exact single-process result.
  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 1u);
  EXPECT_EQ(merged_grid(dir_).to_csv(), mc::run_scenario_grid(axes, cfg).to_csv());
}

TEST_F(DistributedTest, ForeignCellFileRejected) {
  const auto axes = test_axes();
  (void)mc::run_handle::init(axes, test_config(), dir_);
  (void)mc::run_pending_cells(dir_);

  // Plant cell 0 of a different sweep (other seed) at position 0.
  const fs::path foreign_dir = dir_.string() + ".foreign";
  mc::scenario_config other = test_config();
  other.seed = 777;
  (void)mc::run_handle::init(axes, other, foreign_dir);
  (void)mc::run_pending_cells(foreign_dir, 1);
  fs::copy_file(mc::cell_state_path(foreign_dir, 0), mc::cell_state_path(dir_, 0),
                fs::copy_options::overwrite_existing);
  fs::remove_all(foreign_dir);

  // The fingerprint check refuses to merge it, and resume recomputes it.
  EXPECT_THROW((void)merged_grid(dir_), mc::run_dir_error);
  EXPECT_EQ(mc::missing_cells(dir_), std::vector<std::uint64_t>{0});
  (void)mc::run_pending_cells(dir_);
  EXPECT_EQ(merged_grid(dir_).to_csv(),
            mc::run_scenario_grid(axes, test_config()).to_csv());
}

#ifdef RELDIV_SWEEP_BIN

TEST_F(DistributedTest, FourWorkerProcessesMatchSingleProcessBitForBit) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  const mc::distributed_config dist{.run_dir = dir_, .workers = 4};

  const mc::grid_result merged = std::get<mc::grid_result>(
      mc::run_distributed(mc::sweep_manifest{.axes = axes, .seed = cfg.seed}, dist,
                          RELDIV_SWEEP_BIN)
          .merge());
  const mc::grid_result single = mc::run_scenario_grid(axes, cfg);
  EXPECT_EQ(merged.to_csv(), single.to_csv());
  EXPECT_EQ(merged.to_json(), single.to_json());
}

TEST_F(DistributedTest, KilledMultiProcessRunResumesBitIdentical) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);

  // First wave: 4 real worker processes, each quota'd to one cell — the
  // deterministic stand-in for a SIGKILL that leaves 4 of 16 state files.
  const auto pids = mc::spawn_sweep_workers(RELDIV_SWEEP_BIN, dir_, 4, /*max_cells=*/1);
  const auto codes = mc::wait_sweep_workers(pids);
  for (const int c : codes) EXPECT_EQ(c, 0);
  EXPECT_EQ(mc::missing_cells(dir_).size(), 12u);

  // Resume with a fresh coordinator: identical to the uninterrupted run.
  const mc::distributed_config dist{.run_dir = dir_, .workers = 4};
  const mc::grid_result merged = std::get<mc::grid_result>(
      mc::run_distributed(mc::sweep_manifest{.axes = axes, .seed = cfg.seed}, dist,
                          RELDIV_SWEEP_BIN)
          .merge());
  EXPECT_EQ(merged.to_csv(), mc::run_scenario_grid(axes, cfg).to_csv());
}

TEST_F(DistributedTest, MissingWorkerBinaryReportsCleanly) {
  const mc::sweep_manifest m{.axes = test_axes(), .seed = test_config().seed};
  const mc::distributed_config dist{.run_dir = dir_, .workers = 2};
  EXPECT_THROW((void)mc::run_distributed(m, dist, "/nonexistent/worker"),
               mc::run_dir_error);
}

#endif  // RELDIV_SWEEP_BIN

}  // namespace
