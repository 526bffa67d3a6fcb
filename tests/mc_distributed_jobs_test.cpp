// mc::distributed — the demand-campaign and experiment shard-window job
// kinds.  The contract under test mirrors tests/mc_distributed_test.cpp:
// however a run directory gets filled (one process, many processes,
// interrupted and resumed, corrupted and healed), the merged output is
// bit-identical to the single-process oracle — run_demand_campaign for
// demand windows, run_experiment for shard windows.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

mc::demand_manifest test_demand_manifest() {
  mc::demand_manifest m;
  m.target_pfd.reserve(600);
  for (std::size_t t = 0; t < 600; ++t) {
    m.target_pfd.push_back(1e-4 + 1e-6 * static_cast<double>(t % 97));
  }
  m.demands = 5'000;
  m.seed = 424242;
  m.window = 64;  // 10 windows, the last one ragged (600 = 9*64 + 24)
  return m;
}

mc::experiment_manifest test_experiment_manifest(bool keep_samples = false) {
  mc::experiment_config cfg;
  cfg.samples = 4'000;
  cfg.seed = 90210;
  cfg.shards = 16;
  cfg.keep_samples = keep_samples;
  return mc::make_experiment_manifest(
      core::make_safety_grade_universe(24, 0.0, 0.05, 0.6, 5), cfg, /*window=*/3);
}

void expect_results_equal(const mc::experiment_result& a, const mc::experiment_result& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.shards, b.shards);
  const auto sa1 = a.theta1.state();
  const auto sb1 = b.theta1.state();
  const auto sa2 = a.theta2.state();
  const auto sb2 = b.theta2.state();
  EXPECT_EQ(sa1.count, sb1.count);
  EXPECT_TRUE(bits_equal(sa1.m1, sb1.m1));
  EXPECT_TRUE(bits_equal(sa1.m2, sb1.m2));
  EXPECT_TRUE(bits_equal(sa1.m3, sb1.m3));
  EXPECT_TRUE(bits_equal(sa1.m4, sb1.m4));
  EXPECT_TRUE(bits_equal(sa2.m1, sb2.m1));
  EXPECT_TRUE(bits_equal(sa2.m2, sb2.m2));
  EXPECT_TRUE(bits_equal(sa2.min, sb2.min));
  EXPECT_TRUE(bits_equal(sa2.max, sb2.max));
  EXPECT_EQ(a.n1_positive, b.n1_positive);
  EXPECT_EQ(a.n2_positive, b.n2_positive);
  EXPECT_EQ(a.n1_zero_pfd, b.n1_zero_pfd);
  EXPECT_EQ(a.n2_zero_pfd, b.n2_zero_pfd);
  EXPECT_EQ(a.theta1_samples, b.theta1_samples);
  EXPECT_EQ(a.theta2_samples, b.theta2_samples);
}

/// The run directory's typed merge.
template <class Result>
Result merged(const fs::path& dir) {
  return std::get<Result>(mc::run_handle::open(dir).merge());
}

class DistributedJobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("reldiv_distributed_jobs_test_" + std::to_string(::getpid()) + "_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Pure window entry points
// ---------------------------------------------------------------------------

TEST_F(DistributedJobsTest, DemandWindowsAssembleIntoTheFullCampaign) {
  const mc::demand_manifest m = test_demand_manifest();
  ASSERT_EQ(m.window_count(), 10u);
  const mc::demand_tally whole =
      mc::run_demand_campaign(m.target_pfd, m.demands, m.config());

  mc::demand_tally assembled;
  assembled.demands = m.demands;
  assembled.failures.assign(m.target_pfd.size(), 0);
  for (std::uint64_t w = 0; w < m.window_count(); ++w) {
    const mc::demand_window_result win = mc::run_demand_window(m, w);
    const auto [begin, end] = m.window_bounds(w);
    ASSERT_EQ(win.target_begin, begin);
    ASSERT_EQ(win.target_end, end);
    ASSERT_EQ(win.failures.size(), end - begin);
    for (std::uint64_t t = begin; t < end; ++t) {
      assembled.failures[t] = win.failures[t - begin];
    }
  }
  EXPECT_EQ(assembled.failures, whole.failures);

  // The window function is thread-invariant (per-target streams).
  const mc::demand_window_result serial = mc::run_demand_window(m, 3, /*threads=*/1);
  const mc::demand_window_result wide = mc::run_demand_window(m, 3, /*threads=*/7);
  EXPECT_EQ(serial.failures, wide.failures);

  EXPECT_THROW((void)mc::run_demand_window(m, m.window_count()), std::out_of_range);
}

TEST_F(DistributedJobsTest, ExperimentWindowsReplayTheRunExperimentFold) {
  const mc::experiment_manifest m = test_experiment_manifest();
  ASSERT_EQ(m.shards, 16u);
  ASSERT_EQ(m.window_count(), 6u);  // ceil(16 / 3)

  mc::experiment_accumulator acc(m.keep_samples);
  for (std::uint64_t w = 0; w < m.window_count(); ++w) {
    const mc::experiment_window_result win = mc::run_experiment_window(m, w);
    const auto [begin, end] = m.window_bounds(w);
    ASSERT_EQ(win.shard_begin, begin);
    ASSERT_EQ(win.shard_end, end);
    ASSERT_EQ(win.shard_states.size(), end - begin);
    for (const mc::accumulator_state& shard : win.shard_states) {
      acc.merge(mc::experiment_accumulator::from_state(shard));
    }
  }
  mc::experiment_result folded = acc.to_result(m.ci_level);
  folded.shards = m.shards;
  expect_results_equal(folded, mc::run_experiment(m.universe, m.config()));

  // Thread count is a throughput knob inside a window too.
  const mc::experiment_window_result serial = mc::run_experiment_window(m, 1, 1);
  const mc::experiment_window_result wide = mc::run_experiment_window(m, 1, 7);
  ASSERT_EQ(serial.shard_states.size(), wide.shard_states.size());
  for (std::size_t s = 0; s < serial.shard_states.size(); ++s) {
    EXPECT_TRUE(bits_equal(serial.shard_states[s].theta1.m1,
                           wide.shard_states[s].theta1.m1));
    EXPECT_EQ(serial.shard_states[s].samples, wide.shard_states[s].samples);
  }
}

TEST_F(DistributedJobsTest, ManifestValidationRejectsBrokenIdentities) {
  mc::demand_manifest d = test_demand_manifest();
  d.window = 0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = test_demand_manifest();
  d.demands = 0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = test_demand_manifest();
  d.target_pfd[5] = 1.5;
  EXPECT_THROW(d.validate(), std::invalid_argument);

  mc::experiment_manifest e = test_experiment_manifest();
  e.shards = 0;  // unresolved layout
  EXPECT_THROW(e.validate(), std::invalid_argument);
  e = test_experiment_manifest();
  e.shards = static_cast<unsigned>(e.samples) + 1;  // more shards than samples —
  EXPECT_THROW(e.validate(), std::invalid_argument);  // the plan caps, so it disagrees
}

// ---------------------------------------------------------------------------
// Demand-campaign run directories
// ---------------------------------------------------------------------------

TEST_F(DistributedJobsTest, DemandInitResumeAndKindSafety) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);
  const mc::run_handle opened = mc::run_handle::open(dir_);
  EXPECT_EQ(opened.kind(), mc::job_kind::demand_campaign);
  EXPECT_TRUE(fs::exists(mc::manifest_path(dir_)));
  EXPECT_FALSE(fs::exists(dir_ / "manifest.json"));  // describe is the JSON view
  EXPECT_EQ(mc::demand_manifest_fingerprint(opened.demand_campaign_manifest()),
            mc::demand_manifest_fingerprint(m));

  // Same campaign resumes; a different budget refuses; a different KIND
  // refuses even before fingerprints are compared.
  EXPECT_NO_THROW((void)mc::run_handle::init(m, dir_));
  mc::demand_manifest other = m;
  other.demands += 1;
  EXPECT_THROW((void)mc::run_handle::init(other, dir_), mc::run_dir_error);
  EXPECT_THROW((void)mc::run_handle::init(test_experiment_manifest(), dir_),
               mc::run_dir_error);
  // Asking a demand run for another kind's manifest names both kinds.
  EXPECT_THROW((void)opened.grid_manifest(), mc::run_dir_error);
  EXPECT_THROW((void)opened.experiment_shards_manifest(), mc::run_dir_error);
}

TEST_F(DistributedJobsTest, DemandWorkerFillsDirectoryAndMergeEqualsSingleProcess) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);

  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 10u);
  EXPECT_TRUE(mc::missing_cells(dir_).empty());

  const mc::demand_tally tally = merged<mc::demand_tally>(dir_);
  const mc::demand_tally single =
      mc::run_demand_campaign(m.target_pfd, m.demands, m.config());
  EXPECT_EQ(tally.demands, single.demands);
  EXPECT_EQ(tally.failures, single.failures);

  const auto again = mc::run_pending_cells(dir_);
  EXPECT_EQ(again.computed, 0u);
  EXPECT_EQ(again.skipped, 10u);
}

TEST_F(DistributedJobsTest, DemandInterruptedRunResumesBitIdentical) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);

  const auto partial = mc::run_pending_cells(dir_, /*max_cells=*/4);
  EXPECT_EQ(partial.computed, 4u);
  EXPECT_EQ(mc::missing_cells(dir_).size(), 6u);
  EXPECT_THROW((void)merged<mc::demand_tally>(dir_), mc::run_dir_error);

  (void)mc::run_pending_cells(dir_);
  EXPECT_EQ(merged<mc::demand_tally>(dir_).failures,
            mc::run_demand_campaign(m.target_pfd, m.demands, m.config()).failures);
}

TEST_F(DistributedJobsTest, DemandCorruptWindowIsRecomputed) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);
  (void)mc::run_pending_cells(dir_);

  const fs::path victim = mc::cell_state_path(dir_, 5);
  std::string blob = mc::read_file(victim);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x20);
  mc::write_file_atomic(victim, blob);
  EXPECT_EQ(mc::missing_cells(dir_), std::vector<std::uint64_t>{5});
  EXPECT_THROW((void)merged<mc::demand_tally>(dir_), mc::run_dir_error);

  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 1u);
  EXPECT_EQ(merged<mc::demand_tally>(dir_).failures,
            mc::run_demand_campaign(m.target_pfd, m.demands, m.config()).failures);
}

TEST_F(DistributedJobsTest, DemandForeignWindowFileRejected) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);
  (void)mc::run_pending_cells(dir_);

  const fs::path foreign_dir = dir_.string() + ".foreign";
  mc::demand_manifest other = m;
  other.seed = 777;
  (void)mc::run_handle::init(other, foreign_dir);
  (void)mc::run_pending_cells(foreign_dir, 1);
  fs::copy_file(mc::cell_state_path(foreign_dir, 0), mc::cell_state_path(dir_, 0),
                fs::copy_options::overwrite_existing);
  fs::remove_all(foreign_dir);

  EXPECT_THROW((void)merged<mc::demand_tally>(dir_), mc::run_dir_error);
  EXPECT_EQ(mc::missing_cells(dir_), std::vector<std::uint64_t>{0});
  (void)mc::run_pending_cells(dir_);
  EXPECT_EQ(merged<mc::demand_tally>(dir_).failures,
            mc::run_demand_campaign(m.target_pfd, m.demands, m.config()).failures);
}

// ---------------------------------------------------------------------------
// Experiment shard-window run directories
// ---------------------------------------------------------------------------

TEST_F(DistributedJobsTest, ExperimentWorkerFillsDirectoryAndMergeEqualsRunExperiment) {
  const mc::experiment_manifest m = test_experiment_manifest();
  (void)mc::run_handle::init(m, dir_);
  EXPECT_EQ(mc::run_handle::open(dir_).kind(), mc::job_kind::experiment_shards);

  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 6u);
  EXPECT_TRUE(mc::missing_cells(dir_).empty());

  expect_results_equal(merged<mc::experiment_result>(dir_),
                       mc::run_experiment(m.universe, m.config()));
}

TEST_F(DistributedJobsTest, ExperimentKeepSamplesRoundTripsThroughTheRunDir) {
  const mc::experiment_manifest m = test_experiment_manifest(/*keep_samples=*/true);
  (void)mc::run_handle::init(m, dir_);
  (void)mc::run_pending_cells(dir_);
  const mc::experiment_result kept = merged<mc::experiment_result>(dir_);
  const mc::experiment_result single = mc::run_experiment(m.universe, m.config());
  ASSERT_TRUE(kept.theta1_samples.has_value());
  expect_results_equal(kept, single);
}

TEST_F(DistributedJobsTest, ExperimentInterruptedRunResumesBitIdentical) {
  const mc::experiment_manifest m = test_experiment_manifest();
  (void)mc::run_handle::init(m, dir_);

  const auto partial = mc::run_pending_cells(dir_, /*max_cells=*/2);
  EXPECT_EQ(partial.computed, 2u);
  EXPECT_EQ(mc::missing_cells(dir_).size(), 4u);
  EXPECT_THROW((void)merged<mc::experiment_result>(dir_), mc::run_dir_error);

  (void)mc::run_pending_cells(dir_);
  expect_results_equal(merged<mc::experiment_result>(dir_),
                       mc::run_experiment(m.universe, m.config()));
}

TEST_F(DistributedJobsTest, ExperimentCorruptWindowIsRecomputed) {
  const mc::experiment_manifest m = test_experiment_manifest();
  (void)mc::run_handle::init(m, dir_);
  (void)mc::run_pending_cells(dir_);

  const fs::path victim = mc::cell_state_path(dir_, 3);
  std::string blob = mc::read_file(victim);
  blob[blob.size() / 3] = static_cast<char>(blob[blob.size() / 3] ^ 0x04);
  mc::write_file_atomic(victim, blob);
  EXPECT_EQ(mc::missing_cells(dir_), std::vector<std::uint64_t>{3});

  const auto report = mc::run_pending_cells(dir_);
  EXPECT_EQ(report.computed, 1u);
  expect_results_equal(merged<mc::experiment_result>(dir_),
                       mc::run_experiment(m.universe, m.config()));
}

// ---------------------------------------------------------------------------
// Records that contradict the manifest.  Each forged file below carries the
// run's fingerprint and index and a valid checksum, so it reads as done; the
// merge must still refuse it, with run_dir_error.
// ---------------------------------------------------------------------------

/// Re-encode cell `index` of a filled run directory after `forge` edits its
/// result.
template <class State, class Forge>
void forge_cell(const fs::path& dir, std::uint64_t index, State (*decode)(std::string_view),
                std::string (*encode)(const State&), Forge forge) {
  State s = decode(mc::read_file(mc::cell_state_path(dir, index)));
  forge(s.result);
  mc::write_file_atomic(mc::cell_state_path(dir, index), encode(s));
}

void expect_merge_refuses(const fs::path& dir, std::uint64_t index) {
  EXPECT_TRUE(mc::missing_cells(dir).empty());
  try {
    (void)mc::run_handle::open(dir).merge();
    ADD_FAILURE() << "a forged cell " << index << " merged";
  } catch (const mc::run_dir_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell " + std::to_string(index) +
                                         " disagrees with the manifest"),
              std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a run_dir_error: " << e.what();
  }
}

TEST_F(DistributedJobsTest, MergeRefusesShardStatesThatKeepSamplesInARunThatDoesNot) {
  (void)mc::run_handle::init(test_experiment_manifest(), dir_);
  (void)mc::run_pending_cells(dir_);
  forge_cell(dir_, 2, mc::decode_experiment_window_state, mc::encode_experiment_window_state,
             [](mc::experiment_window_result& r) {
               for (mc::accumulator_state& s : r.shard_states) {
                 s.keeping_samples = true;
                 s.theta1_samples.assign(s.samples, 1e-4);
                 s.theta2_samples.assign(s.samples, 0.0);
               }
             });
  expect_merge_refuses(dir_, 2);
}

TEST_F(DistributedJobsTest, MergeRefusesAShardStateWithOneSampleTooMany) {
  const mc::experiment_manifest m = test_experiment_manifest();
  (void)mc::run_handle::init(m, dir_);
  (void)mc::run_pending_cells(dir_);
  forge_cell(dir_, 1, mc::decode_experiment_window_state, mc::encode_experiment_window_state,
             [](mc::experiment_window_result& r) {
               mc::accumulator_state& s = r.shard_states.front();
               ++s.samples;
               ++s.theta1.count;
               ++s.theta2.count;
             });
  expect_merge_refuses(dir_, 1);
}

TEST_F(DistributedJobsTest, MergeRefusesAScenarioCellWhoseStateDisagreesWithItsBudget) {
  mc::scenario_axes axes;
  axes.universes.emplace_back("tiny",
                              core::make_safety_grade_universe(16, 0.0, 0.05, 0.6, 3));
  axes.correlations = {0.0, 0.25};
  axes.budgets = {2'000};
  (void)mc::run_handle::init(axes, {.seed = 5, .threads = 1}, dir_);
  (void)mc::run_pending_cells(dir_);
  forge_cell(dir_, 1, mc::decode_cell_state, mc::encode_cell_state,
             [](mc::scenario_cell_result& r) {
               mc::experiment_accumulator acc;
               for (int i = 0; i < 7; ++i) acc.add(0.5, 0.0, true, false);
               r.state = acc.state();
               r.mean_theta1 = 0.5;
             });
  expect_merge_refuses(dir_, 1);
}

TEST_F(DistributedJobsTest, MergeRefusesADemandWindowWithMoreFailuresThanDemands) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);
  (void)mc::run_pending_cells(dir_);
  forge_cell(dir_, 4, mc::decode_demand_window_state, mc::encode_demand_window_state,
             [&m](mc::demand_window_result& r) { r.failures.back() = 5 * m.demands; });
  expect_merge_refuses(dir_, 4);
}

// ---------------------------------------------------------------------------
// Real multi-process runs (worker = the built reldiv_sweep binary)
// ---------------------------------------------------------------------------

#ifdef RELDIV_SWEEP_BIN

TEST_F(DistributedJobsTest, FourWorkerProcessesMatchSingleProcessDemandCampaign) {
  const mc::demand_manifest m = test_demand_manifest();
  const mc::distributed_config dist{.run_dir = dir_, .workers = 4};
  const auto tally =
      std::get<mc::demand_tally>(mc::run_distributed(m, dist, RELDIV_SWEEP_BIN).merge());
  const mc::demand_tally single =
      mc::run_demand_campaign(m.target_pfd, m.demands, m.config());
  EXPECT_EQ(tally.failures, single.failures);
}

TEST_F(DistributedJobsTest, KilledDemandRunResumesBitIdentical) {
  const mc::demand_manifest m = test_demand_manifest();
  (void)mc::run_handle::init(m, dir_);

  // First wave: 4 real worker processes, each quota'd to one window — the
  // deterministic stand-in for a SIGKILL that leaves 4 of 10 state files.
  const auto pids = mc::spawn_sweep_workers(RELDIV_SWEEP_BIN, dir_, 4, /*max_cells=*/1);
  const auto codes = mc::wait_sweep_workers(pids);
  for (const int c : codes) EXPECT_EQ(c, 0);
  EXPECT_EQ(mc::missing_cells(dir_).size(), 6u);

  const mc::distributed_config dist{.run_dir = dir_, .workers = 4};
  const auto tally =
      std::get<mc::demand_tally>(mc::run_distributed(m, dist, RELDIV_SWEEP_BIN).merge());
  EXPECT_EQ(tally.failures,
            mc::run_demand_campaign(m.target_pfd, m.demands, m.config()).failures);
}

TEST_F(DistributedJobsTest, FourWorkerProcessesMatchSingleProcessExperiment) {
  const mc::experiment_manifest m = test_experiment_manifest();
  const mc::distributed_config dist{.run_dir = dir_, .workers = 4};
  const auto result =
      std::get<mc::experiment_result>(mc::run_distributed(m, dist, RELDIV_SWEEP_BIN).merge());
  expect_results_equal(result, mc::run_experiment(m.universe, m.config()));
}

TEST_F(DistributedJobsTest, KilledExperimentRunResumesBitIdentical) {
  const mc::experiment_manifest m = test_experiment_manifest();
  (void)mc::run_handle::init(m, dir_);

  const auto pids = mc::spawn_sweep_workers(RELDIV_SWEEP_BIN, dir_, 4, /*max_cells=*/1);
  const auto codes = mc::wait_sweep_workers(pids);
  for (const int c : codes) EXPECT_EQ(c, 0);
  EXPECT_EQ(mc::missing_cells(dir_).size(), 2u);

  const mc::distributed_config dist{.run_dir = dir_, .workers = 4};
  const auto result =
      std::get<mc::experiment_result>(mc::run_distributed(m, dist, RELDIV_SWEEP_BIN).merge());
  expect_results_equal(result, mc::run_experiment(m.universe, m.config()));
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST_F(DistributedJobsTest, CliRefusesAnInfeasibleMixtureBeforeLaunch) {
  // rho 0.6 at the default stress 1.8 has no marginal-preserving mixture.
  // The spec layer refuses it with a positioned diagnostic (exit 2) before
  // any run directory is written or queued: no worker ever dies on it and no
  // `merge --wait` polls for cells that cannot land.
  fs::create_directories(dir_);
  const fs::path spec = dir_ / "rho06.spec";
  std::ofstream(spec) << "[sweep]\nkind = scenario\n"
                         "[universe u]\ngenerator = homogeneous\nfaults = 4\np = 0.1\n"
                         "q = 0.1\n[axes]\nrho = 0 0.6\nbudget = 100\n";
  const fs::path root = dir_ / "svc";
  const fs::path err = dir_ / "submit.stderr";
  const std::string submit = std::string(RELDIV_SWEEP_BIN) + " submit --root " +
                             root.string() + " --spec " + spec.string() + " 2>" +
                             err.string();
  const int rc = std::system(submit.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  EXPECT_NE(slurp(err).find("infeasible axes"), std::string::npos) << slurp(err);
  EXPECT_TRUE(mc::queued_runs(root).empty());
  EXPECT_FALSE(fs::exists(mc::runs_dir(root)));

  const std::string single = std::string(RELDIV_SWEEP_BIN) + " single --spec " +
                             spec.string() + " 2>/dev/null";
  const int single_rc = std::system(single.c_str());
  ASSERT_TRUE(WIFEXITED(single_rc));
  EXPECT_EQ(WEXITSTATUS(single_rc), 2);
}

TEST_F(DistributedJobsTest, CliAcceptsOnlySubcommandsWithTheirOwnFlags) {
  // One grammar: every invocation starts with a subcommand, and each
  // subcommand takes only its own flags.  A refused invocation is a usage
  // error (exit 2, usage on stderr) that touches nothing.
  fs::create_directories(dir_);
  const std::string run_dir = (dir_ / "run.d").string();
  const fs::path root = dir_ / "svc";
  const fs::path out = dir_ / "stdout";
  const fs::path err = dir_ / "stderr";
  struct invocation {
    std::string args;
    int exit_code;
    std::string usage;  // expected on stdout (exit 0) or stderr (exit 2)
  };
  std::vector<invocation> cases = {
      // The retired role flags, the implicit coordinator and the implicit
      // single run.
      {"--single --mode scenario", 2, "usage: reldiv_sweep <command>"},
      {"--worker --run-dir " + run_dir, 2, "usage: reldiv_sweep <command>"},
      {"--merge-only --run-dir " + run_dir, 2, "usage: reldiv_sweep <command>"},
      {"--chaos --run-dir " + run_dir, 2, "usage: reldiv_sweep <command>"},
      {"--run-dir " + run_dir + " --workers 2", 2, "usage: reldiv_sweep <command>"},
      {"--mode scenario", 2, "usage: reldiv_sweep <command>"},
      // A flag that belongs to another subcommand.
      {"single --workers 4", 2, "usage: reldiv_sweep single"},
      {"worker --run-dir " + run_dir + " --out-csv x", 2, "usage: reldiv_sweep worker"},
      {"chaos --run-dir " + run_dir + " --spec f", 2, "usage: reldiv_sweep chaos"},
      // Numeric flags take digits only: no sign, and no leading blank that
      // would let a sign through.
      {"single --seed ' -1'", 2,
       "--seed expects an unsigned integer, got ' -1'\nusage: reldiv_sweep single"},
      {"single --budget ' 5'", 2,
       "--budget expects an unsigned integer, got ' 5'\nusage: reldiv_sweep single"},
      {"single --shards ' -1'", 2,
       "--shards expects an unsigned integer, got ' -1'\nusage: reldiv_sweep single"},
      {"single --seed +5", 2,
       "--seed expects an unsigned integer, got '+5'\nusage: reldiv_sweep single"},
      // The retired engines, refused by name wherever a flag or a mode names
      // them.
      {"single --engine legacy", 2,
       "the 'legacy' engine was retired; 'exact' gives the same results bit for bit\n"
       "usage: reldiv_sweep single"},
      {"single --mode scenario --engine legacy", 2,
       "the 'legacy' engine was retired; 'exact' gives the same results bit for bit\n"
       "usage: reldiv_sweep single"},
      {"single --engine fast", 2,
       "the 'fast' engine was retired; 'fast-simd' samples the same distribution with "
       "different per-seed values, and 'exact' is the bit-exact reference\n"
       "usage: reldiv_sweep single"},
      {"submit --root " + root.string() + " --mode experiment --engine fast", 2,
       "the 'fast' engine was retired; 'fast-simd' samples the same distribution with "
       "different per-seed values, and 'exact' is the bit-exact reference\n"
       "usage: reldiv_sweep submit"},
      // An override the job kind does not take fails like the same key in the
      // spec file would: a positioned spec diagnostic, no usage dump.
      {"single --mode scenario --engine exact", 2,
       "<preset scenario/smoke>:2: --engine: a scenario spec takes no --engine"},
      {"single --mode demand --shards 3", 2,
       "<preset demand/smoke>:2: --shards: a demand spec takes no --shards"},
  };
  // --budget 0 reaches the spec like `samples = 0` (or `budget = 0`,
  // `demands = 0`) in the file would: a positioned diagnostic, for a single
  // run and a submission alike.
  for (const std::string& cmd : {std::string("single"), "submit --root " + root.string()}) {
    cases.push_back({cmd + " --mode experiment --budget 0", 2,
                     "<preset experiment/smoke>:14: experiment: infeasible: "
                     "experiment_manifest: samples must be > 0"});
    cases.push_back({cmd + " --mode scenario --budget 0", 2,
                     "<preset scenario/smoke>:23: axes: infeasible axes: scenario_grid: "
                     "budget must be > 0"});
    cases.push_back({cmd + " --mode demand --budget 0", 2,
                     "<preset demand/smoke>:6: demand: infeasible: demand_manifest: "
                     "demands must be > 0"});
  }
  for (const char* cmd : {"single", "worker", "chaos", "serve", "submit", "status", "merge",
                          "drain", "describe", "refine"}) {
    cases.push_back({std::string(cmd) + " --help", 0, std::string("usage: reldiv_sweep ") + cmd});
  }
  for (const invocation& c : cases) {
    const std::string line = std::string(RELDIV_SWEEP_BIN) + " " + c.args + " >" +
                             out.string() + " 2>" + err.string();
    const int rc = std::system(line.c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << c.args;
    EXPECT_EQ(WEXITSTATUS(rc), c.exit_code) << c.args;
    const std::string text = slurp(c.exit_code == 0 ? out : err);
    EXPECT_NE(text.find(c.usage), std::string::npos) << c.args << ":\n" << text;
  }
  EXPECT_FALSE(fs::exists(run_dir)) << "a refused invocation wrote its run directory";
  EXPECT_FALSE(fs::exists(mc::runs_dir(root))) << "a refused submission wrote a run";
}

#endif  // RELDIV_SWEEP_BIN

}  // namespace
