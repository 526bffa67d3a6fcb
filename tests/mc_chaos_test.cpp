// Deterministic fault injection through the full distributed protocol: the
// worker loop's retry/backoff under a lossy seam, poison-cell quarantine and
// its clearing on clean resume, merge's precise refusal of quarantined
// partial directories, and (via the real reldiv_sweep binary) the chaos
// harness's two-arm contract — a run under injection either completes
// byte-identical to the in-process oracle or exits nonzero leaving an
// intact, resumable run directory.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>

#include "core/generators.hpp"
#include "mc/distributed.hpp"
#include "mc/io_env.hpp"
#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"

namespace mc = reldiv::mc;
namespace core = reldiv::core;
namespace fs = std::filesystem;

namespace {

mc::scenario_axes test_axes() {
  mc::scenario_axes axes;
  axes.universes.emplace_back("tiny",
                              core::make_safety_grade_universe(16, 0.0, 0.05, 0.6, 3));
  axes.correlations = {0.0, 0.4};
  axes.overlaps = {1.0};
  axes.aliasing = {1, 2};
  axes.budgets = {1'000};
  return axes;  // 2 correlations x 2 aliasing = 4 cells
}

mc::scenario_config test_config() { return {.seed = 4242, .threads = 2, .shards = 0}; }

/// The run directory's typed merge.
mc::grid_result merged_grid(const fs::path& dir) {
  return std::get<mc::grid_result>(mc::run_handle::open(dir).merge());
}

/// Retry/backoff tuned for test speed: the schedule stays deterministic,
/// just in single-millisecond units.
mc::worker_config fast_worker() {
  mc::worker_config cfg;
  cfg.backoff_base = std::chrono::milliseconds{1};
  return cfg;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified so concurrent test processes can't clobber each other.
    dir_ = fs::temp_directory_path() /
           ("reldiv_chaos_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ChaosTest, WorkerLoopAbsorbsTransientFaultsAndMergesBitIdentical) {
  const auto axes = test_axes();
  const auto cfg = test_config();
  (void)mc::run_handle::init(axes, cfg, dir_);

  // A moderate all-kinds plan: some operations fail, retries absorb them.
  mc::fault_plan plan = mc::chaos_plan(/*chaos_seed=*/1, /*index=*/0,
                                       /*rate_ppm=*/50'000);
  plan.stall_ms = 1;
  mc::worker_report report;
  {
    mc::faulty_io_env env(plan);
    mc::scoped_io_env scope(env);
    report = mc::run_pending_cells(dir_, fast_worker());
    EXPECT_GT(env.operations(), 0u);
  }
  // Whatever was retried or quarantined, the surviving state files are
  // valid; finish any leftovers cleanly and demand the oracle bit-for-bit.
  (void)mc::run_pending_cells(dir_);
  EXPECT_EQ(merged_grid(dir_).to_csv(), mc::run_scenario_grid(axes, cfg).to_csv());
  EXPECT_TRUE(mc::quarantined_cells(dir_).empty())
      << "clean recompute must clear quarantine records";
  (void)report;
}

TEST_F(ChaosTest, ExhaustedRetryBudgetQuarantinesInsteadOfLoopingForever) {
  const auto axes = test_axes();
  (void)mc::run_handle::init(axes, test_config(), dir_);

  // Every state-file write fails: no cell can ever land.
  mc::fault_plan plan;
  plan.seed = 99;
  plan.rate_ppm = 1'000'000;
  plan.ops_mask = mc::io_op_bit(mc::io_op::write);
  plan.kinds_mask = mc::fault_kind_bit(mc::fault_kind::eio);

  mc::worker_config cfg = fast_worker();
  cfg.max_attempts = 3;
  mc::worker_report report;
  {
    mc::faulty_io_env env(plan);
    mc::scoped_io_env scope(env);
    report = mc::run_pending_cells(dir_, cfg);
  }
  EXPECT_EQ(report.computed, 0u);
  EXPECT_EQ(report.quarantined, 4u);
  // Deterministic backoff: attempts at 1ms and 2ms per cell, 4 cells.
  EXPECT_EQ(report.retried, 8u);
  EXPECT_EQ(report.backoff_ms, 12u);

  const auto records = mc::quarantined_cells(dir_);
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].cell_index, i);
    EXPECT_EQ(records[i].attempts, 3u);
    EXPECT_EQ(records[i].error_number, EIO);
    EXPECT_NE(records[i].message.find("io:"), std::string::npos);
  }

  // Merge refuses the partial directory and names the quarantined cell.
  try {
    (void)merged_grid(dir_);
    FAIL() << "merge of a quarantined directory must throw";
  } catch (const mc::run_dir_error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined cell 0"), std::string::npos)
        << e.what();
  }

  // Graceful degradation, not a dead end: a clean rerun computes every cell
  // and clears the ledger.
  const mc::worker_report resumed = mc::run_pending_cells(dir_);
  EXPECT_EQ(resumed.computed, 4u);
  EXPECT_EQ(resumed.quarantined, 0u);
  EXPECT_TRUE(mc::quarantined_cells(dir_).empty());
  EXPECT_EQ(merged_grid(dir_).to_csv(),
            mc::run_scenario_grid(test_axes(), test_config()).to_csv());
}

TEST_F(ChaosTest, TornQuarantineRecordsDegradeInsteadOfThrowing) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);
  fs::create_directories(mc::quarantine_dir(dir_));

  // A torn write can leave a ledger record whose numeric fields overflow
  // their types.  The ledger is advisory and quarantined_cells runs inside
  // error reporting — it must degrade field-by-field, never throw.
  std::ofstream(mc::cell_quarantine_path(dir_, 3))
      << "cell 99999999999999999999999999\n"
      << "attempts 888888888888888888888\n"
      << "errno 77777777777777777777\n"
      << "message torn but labelled\n";
  // And a record cut off mid-keyword, with nothing salvageable in the body.
  std::ofstream(mc::cell_quarantine_path(dir_, 1)) << "cel";

  const auto records = mc::quarantined_cells(dir_);
  ASSERT_EQ(records.size(), 2u);
  // Ascending cell order, indices recovered from the filenames.
  EXPECT_EQ(records[0].cell_index, 1u);
  EXPECT_NE(records[0].message.find("unreadable or malformed"), std::string::npos);
  EXPECT_EQ(records[1].cell_index, 3u);
  EXPECT_EQ(records[1].attempts, 0u);
  EXPECT_EQ(records[1].error_number, 0);
  EXPECT_EQ(records[1].message, "torn but labelled");
}

TEST_F(ChaosTest, OversizedRetryBudgetKeepsBackoffBounded) {
  (void)mc::run_handle::init(test_axes(), test_config(), dir_);

  // Every write fails, and max_attempts exceeds the width of the backoff
  // shift: attempt 40 must clamp the exponent (a plain 1u << 39 is
  // undefined), quarantine all cells, and report a finite schedule.
  mc::fault_plan plan;
  plan.seed = 7;
  plan.rate_ppm = 1'000'000;
  plan.ops_mask = mc::io_op_bit(mc::io_op::write);
  plan.kinds_mask = mc::fault_kind_bit(mc::fault_kind::eio);

  mc::worker_config cfg;
  cfg.backoff_base = std::chrono::milliseconds{0};
  cfg.max_attempts = 40;
  mc::worker_report report;
  {
    mc::faulty_io_env env(plan);
    mc::scoped_io_env scope(env);
    report = mc::run_pending_cells(dir_, cfg);
  }
  EXPECT_EQ(report.computed, 0u);
  EXPECT_EQ(report.quarantined, 4u);
  EXPECT_EQ(report.retried, 4u * 39u);
  EXPECT_EQ(report.backoff_ms, 0u);
  const auto records = mc::quarantined_cells(dir_);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].attempts, 40u);
}

TEST_F(ChaosTest, LostClaimRenameCannotCorruptResults) {
  const auto axes = test_axes();
  (void)mc::run_handle::init(axes, test_config(), dir_);

  // Claim renames silently lose visibility: workers believe they own cells
  // they hold no claim for.  Duplicate compute is possible but harmless —
  // cells are pure and writes atomic — and the merge must still be exact.
  mc::fault_plan plan;
  plan.seed = 11;
  plan.rate_ppm = 1'000'000;
  plan.ops_mask = mc::io_op_bit(mc::io_op::claim);
  plan.kinds_mask = mc::fault_kind_bit(mc::fault_kind::lost_rename);
  {
    mc::faulty_io_env env(plan);
    mc::scoped_io_env scope(env);
    const mc::worker_report report = mc::run_pending_cells(dir_, fast_worker());
    EXPECT_EQ(report.computed, 4u);
  }
  EXPECT_EQ(merged_grid(dir_).to_csv(),
            mc::run_scenario_grid(test_axes(), test_config()).to_csv());
}

#ifdef RELDIV_SWEEP_BIN

/// The chaos harness end to end, exactly as CI runs it: the binary must
/// enforce the two-arm contract itself and exit 0 when it holds.
TEST_F(ChaosTest, ChaosHarnessContractHoldsForEveryJobKind) {
  const std::string cmd = std::string(RELDIV_SWEEP_BIN) + " chaos --run-dir " +
                          dir_.string() + " --chaos-plans 1 --chaos-seed 2026 --quiet" +
                          " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "chaos contract violated (see " << dir_ << ")";
}

TEST_F(ChaosTest, WorkerRejectsMalformedFaultPlan) {
  const std::string cmd = std::string(RELDIV_SWEEP_BIN) + " worker --run-dir " +
                          dir_.string() + " --fault-plan garbage > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2) << "malformed --fault-plan must be a usage error";
}

#endif  // RELDIV_SWEEP_BIN

}  // namespace
