// mc::run_dir — the versioned on-disk state-file layer of the multi-process
// sweep driver: exact round-trips for all three state types, loud rejection
// of truncated / version-mismatched / corrupt files, atomic writes, and the
// manifest codec.
#include "mc/run_dir.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/generators.hpp"
#include "mc/distributed.hpp"
#include "mc/scenario.hpp"
#include "mc/spec.hpp"
#include "stats/wire.hpp"

namespace mc = reldiv::mc;
namespace core = reldiv::core;
namespace fs = std::filesystem;

namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

mc::accumulator_state sample_accumulator_state(bool keep_samples) {
  mc::experiment_accumulator acc(keep_samples);
  acc.add(1e-4, 2e-6, true, false);
  acc.add(0.0, 0.0, false, false);
  acc.add(3e-3, 1e-3, true, true);
  return acc.state();
}

void expect_states_equal(const mc::accumulator_state& a, const mc::accumulator_state& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.theta1.count, b.theta1.count);
  EXPECT_TRUE(bits_equal(a.theta1.m1, b.theta1.m1));
  EXPECT_TRUE(bits_equal(a.theta1.m2, b.theta1.m2));
  EXPECT_TRUE(bits_equal(a.theta2.m3, b.theta2.m3));
  EXPECT_TRUE(bits_equal(a.theta2.m4, b.theta2.m4));
  EXPECT_TRUE(bits_equal(a.theta2.min, b.theta2.min));
  EXPECT_TRUE(bits_equal(a.theta2.max, b.theta2.max));
  EXPECT_EQ(a.n1_positive, b.n1_positive);
  EXPECT_EQ(a.n2_positive, b.n2_positive);
  EXPECT_EQ(a.n1_zero_pfd, b.n1_zero_pfd);
  EXPECT_EQ(a.n2_zero_pfd, b.n2_zero_pfd);
  EXPECT_EQ(a.keeping_samples, b.keeping_samples);
  EXPECT_EQ(a.theta1_samples, b.theta1_samples);
  EXPECT_EQ(a.theta2_samples, b.theta2_samples);
}

mc::scenario_axes small_axes() {
  mc::scenario_axes axes;
  axes.universes.emplace_back("tiny",
                              core::make_safety_grade_universe(16, 0.0, 0.05, 0.6, 3));
  axes.correlations = {0.0, 0.25};
  axes.overlaps = {1.0, 0.5};
  axes.aliasing = {1, 2};
  axes.budgets = {500};
  return axes;
}

/// Patch raw bytes of a state blob and restore the trailing checksum, so a
/// test can reach the header checks behind it.
std::string patch_and_rechecksum(std::string blob, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    blob[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
  reldiv::stats::wire_writer w;
  w.put_u64(reldiv::stats::fnv1a64(std::string_view(blob).substr(0, blob.size() - 8)));
  blob.replace(blob.size() - 8, 8, w.buffer());
  return blob;
}

class RunDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified so concurrent test processes can't clobber each other.
    dir_ = fs::temp_directory_path() /
           ("reldiv_run_dir_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(RunDirCodecTest, AccumulatorStateRoundTrip) {
  const auto s = sample_accumulator_state(/*keep_samples=*/false);
  const auto back = mc::decode_accumulator_state(mc::encode_accumulator_state(s));
  expect_states_equal(s, back);

  // The resumed accumulator equals the original exactly.
  auto a = mc::experiment_accumulator::from_state(s);
  auto b = mc::experiment_accumulator::from_state(back);
  a.add(1e-5, 1e-7, true, true);
  b.add(1e-5, 1e-7, true, true);
  EXPECT_EQ(a.theta1().mean(), b.theta1().mean());
  EXPECT_EQ(a.theta2().variance(), b.theta2().variance());
}

TEST(RunDirCodecTest, AccumulatorStateWithKeptSamplesRoundTrip) {
  const auto s = sample_accumulator_state(/*keep_samples=*/true);
  ASSERT_TRUE(s.keeping_samples);
  ASSERT_FALSE(s.theta1_samples.empty());
  expect_states_equal(s, mc::decode_accumulator_state(mc::encode_accumulator_state(s)));
}

TEST(RunDirCodecTest, DemandTallyRoundTrip) {
  mc::demand_tally t;
  t.demands = 1'000'000;
  t.failures = {0, 17, 3, 999'999, 42};
  const auto back = mc::decode_demand_tally(mc::encode_demand_tally(t));
  EXPECT_EQ(back.demands, t.demands);
  EXPECT_EQ(back.failures, t.failures);

  // A decoded tally is a first-class checkpoint: merging works as before.
  mc::demand_tally other;
  other.demands = t.demands;
  other.failures = {1, 1, 1, 1, 1};
  mc::demand_tally merged = back;
  merged.merge(other);
  EXPECT_EQ(merged.failures[3], 1'000'000u);
}

TEST(RunDirCodecTest, CellStateRoundTrip) {
  const mc::scenario_axes axes = small_axes();
  const auto cells = mc::enumerate_cells(axes);
  const mc::scenario_config cfg{.seed = 99, .threads = 1};
  mc::cell_state cell;
  cell.fingerprint = 0xfeedface;
  cell.cell_index = 3;
  cell.result = mc::run_scenario_cell(axes, cfg, cells[3], 3);

  const auto back = mc::decode_cell_state(mc::encode_cell_state(cell));
  EXPECT_EQ(back.fingerprint, cell.fingerprint);
  EXPECT_EQ(back.cell_index, cell.cell_index);
  EXPECT_EQ(back.result.cell.universe, cell.result.cell.universe);
  EXPECT_EQ(back.result.cell.universe_index, cell.result.cell.universe_index);
  EXPECT_TRUE(bits_equal(back.result.cell.rho, cell.result.cell.rho));
  EXPECT_TRUE(bits_equal(back.result.cell.omega, cell.result.cell.omega));
  EXPECT_EQ(back.result.cell.aliasing, cell.result.cell.aliasing);
  EXPECT_EQ(back.result.cell.samples, cell.result.cell.samples);
  EXPECT_EQ(back.result.seed, cell.result.seed);
  EXPECT_EQ(back.result.shards, cell.result.shards);
  expect_states_equal(back.result.state, cell.result.state);
  EXPECT_TRUE(bits_equal(back.result.mean_theta1, cell.result.mean_theta1));
  EXPECT_TRUE(bits_equal(back.result.mean_theta2, cell.result.mean_theta2));
  EXPECT_TRUE(bits_equal(back.result.prob_n1_positive, cell.result.prob_n1_positive));
  EXPECT_TRUE(bits_equal(back.result.prob_n2_positive, cell.result.prob_n2_positive));
  EXPECT_TRUE(bits_equal(back.result.risk_ratio, cell.result.risk_ratio));
  EXPECT_TRUE(bits_equal(back.result.p_max_true, cell.result.p_max_true));
  EXPECT_TRUE(bits_equal(back.result.p_max_naive, cell.result.p_max_naive));
}

TEST(RunDirCodecTest, CellIdentityPeekMatchesFullDecode) {
  const mc::scenario_axes axes = small_axes();
  const auto cells = mc::enumerate_cells(axes);
  mc::cell_state cell;
  cell.fingerprint = 0xabad1deaULL;
  cell.cell_index = 5;
  cell.result = mc::run_scenario_cell(axes, {.seed = 4, .threads = 1}, cells[5], 5);
  const std::string blob = mc::encode_cell_state(cell);

  // The peek sees the same identity the full decode does...
  const mc::cell_identity id = mc::peek_cell_identity(blob);
  EXPECT_EQ(id.fingerprint, cell.fingerprint);
  EXPECT_EQ(id.cell_index, cell.cell_index);

  // ...with the full container integrity checks: corruption anywhere in the
  // file (even deep in the payload the peek never parses) is rejected.
  std::string corrupt = blob;
  corrupt[corrupt.size() - 12] = static_cast<char>(corrupt[corrupt.size() - 12] ^ 0x01);
  EXPECT_THROW((void)mc::peek_cell_identity(corrupt), mc::run_dir_error);
  EXPECT_THROW((void)mc::peek_cell_identity(std::string_view(blob).substr(0, 30)),
               mc::run_dir_error);
}

TEST(RunDirCodecTest, ManifestRoundTrip) {
  mc::sweep_manifest m;
  m.axes = small_axes();
  m.seed = 424242;
  m.shards = 8;
  m.cell_count = mc::enumerate_cells(m.axes).size();

  const auto back = mc::decode_manifest(mc::encode_manifest(m));
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.shards, m.shards);
  EXPECT_EQ(back.cell_count, m.cell_count);
  EXPECT_TRUE(bits_equal(back.axes.stress, m.axes.stress));
  ASSERT_EQ(back.axes.universes.size(), m.axes.universes.size());
  EXPECT_EQ(back.axes.universes[0].first, "tiny");
  // Universe equality is atom-wise — the SoA caches rebuild identically.
  EXPECT_TRUE(back.axes.universes[0].second == m.axes.universes[0].second);
  EXPECT_EQ(back.axes.correlations, m.axes.correlations);
  EXPECT_EQ(back.axes.overlaps, m.axes.overlaps);
  EXPECT_EQ(back.axes.aliasing, m.axes.aliasing);
  EXPECT_EQ(back.axes.budgets, m.axes.budgets);

  // Same identity -> same fingerprint; different seed -> different one.
  EXPECT_EQ(mc::manifest_fingerprint(back), mc::manifest_fingerprint(m));
  mc::sweep_manifest other = m;
  other.seed = 7;
  EXPECT_NE(mc::manifest_fingerprint(other), mc::manifest_fingerprint(m));
}

TEST(RunDirCodecTest, ManifestCellCountMismatchRejected) {
  mc::sweep_manifest m;
  m.axes = small_axes();
  m.seed = 1;
  m.cell_count = mc::enumerate_cells(m.axes).size() + 1;  // lie
  EXPECT_THROW((void)mc::decode_manifest(mc::encode_manifest(m)), mc::run_dir_error);
}

TEST(RunDirCodecTest, ManifestPastSixtyFourVersionsRejected) {
  // enumerate_cells holds an adjudication to the spec parser's 64 versions,
  // so a code-built manifest past the cap is refused as invalid axes when it
  // is decoded, not by the allocation of the worker that runs its cell.
  mc::sweep_manifest m;
  m.axes = small_axes();
  m.seed = 1;
  m.axes.adjudications = {{64, 2}};
  m.cell_count = mc::enumerate_cells(m.axes).size();
  EXPECT_NO_THROW((void)mc::decode_manifest(mc::encode_manifest(m)));
  for (const unsigned versions : {65u, 4'000'000'000u}) {
    m.axes.adjudications = {{versions, 2}};
    EXPECT_THROW((void)mc::enumerate_cells(m.axes), std::invalid_argument) << versions;
    try {
      (void)mc::decode_manifest(mc::encode_manifest(m));
      ADD_FAILURE() << versions << " versions decoded";
    } catch (const mc::run_dir_error& e) {
      EXPECT_NE(std::string(e.what()).find("manifest axes invalid"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Demand-window and experiment-window states (the PR 5 job kinds)
// ---------------------------------------------------------------------------

mc::demand_window_state sample_demand_window_state() {
  mc::demand_window_state s;
  s.fingerprint = 0xfeedface12345678ULL;
  s.window_index = 3;
  s.result.target_begin = 96;
  s.result.target_end = 101;
  s.result.demands = 50'000;
  s.result.failures = {7, 0, 12, 999, 1};
  return s;
}

mc::experiment_window_state sample_experiment_window_state(bool keep_samples) {
  mc::experiment_window_state s;
  s.fingerprint = 0xabcdef0122334455ULL;
  s.window_index = 2;
  s.result.shard_begin = 4;
  s.result.shard_end = 6;
  s.result.shard_states = {sample_accumulator_state(keep_samples),
                           sample_accumulator_state(keep_samples)};
  return s;
}

TEST(RunDirCodecTest, DemandWindowStateRoundTrip) {
  const auto s = sample_demand_window_state();
  const auto back = mc::decode_demand_window_state(mc::encode_demand_window_state(s));
  EXPECT_EQ(back.fingerprint, s.fingerprint);
  EXPECT_EQ(back.window_index, s.window_index);
  EXPECT_EQ(back.result.target_begin, s.result.target_begin);
  EXPECT_EQ(back.result.target_end, s.result.target_end);
  EXPECT_EQ(back.result.demands, s.result.demands);
  EXPECT_EQ(back.result.failures, s.result.failures);
}

TEST(RunDirCodecTest, ExperimentWindowStateRoundTrip) {
  for (const bool keep : {false, true}) {
    const auto s = sample_experiment_window_state(keep);
    const auto back =
        mc::decode_experiment_window_state(mc::encode_experiment_window_state(s));
    EXPECT_EQ(back.fingerprint, s.fingerprint);
    EXPECT_EQ(back.window_index, s.window_index);
    EXPECT_EQ(back.result.shard_begin, s.result.shard_begin);
    EXPECT_EQ(back.result.shard_end, s.result.shard_end);
    ASSERT_EQ(back.result.shard_states.size(), s.result.shard_states.size());
    for (std::size_t i = 0; i < s.result.shard_states.size(); ++i) {
      expect_states_equal(back.result.shard_states[i], s.result.shard_states[i]);
    }
  }
}

TEST(RunDirCodecTest, WindowIdentityPeeksMatchFullDecode) {
  const auto d = sample_demand_window_state();
  const auto did = mc::peek_cell_identity(mc::state_kind::demand_window,
                                          mc::encode_demand_window_state(d));
  EXPECT_EQ(did.fingerprint, d.fingerprint);
  EXPECT_EQ(did.cell_index, d.window_index);

  const auto e = sample_experiment_window_state(false);
  const auto eid = mc::peek_cell_identity(mc::state_kind::experiment_window,
                                          mc::encode_experiment_window_state(e));
  EXPECT_EQ(eid.fingerprint, e.fingerprint);
  EXPECT_EQ(eid.cell_index, e.window_index);

  // The peek still enforces the container kind.
  EXPECT_THROW((void)mc::peek_cell_identity(mc::state_kind::experiment_window,
                                            mc::encode_demand_window_state(d)),
               mc::run_dir_error);
}

TEST(RunDirCodecTest, PeekStateKindValidatesIntegrityFirst) {
  const std::string blob = mc::encode_demand_window_state(sample_demand_window_state());
  EXPECT_EQ(mc::peek_state_kind(blob), mc::state_kind::demand_window);

  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  EXPECT_THROW((void)mc::peek_state_kind(corrupt), mc::run_dir_error);
  EXPECT_THROW((void)mc::peek_state_kind(std::string_view(blob).substr(0, 10)),
               mc::run_dir_error);
}

TEST(RunDirCodecTest, DemandWindowTruncationAndCorruptionRejected) {
  const std::string blob = mc::encode_demand_window_state(sample_demand_window_state());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{12}, blob.size() / 2,
                                blob.size() - 9, blob.size() - 1}) {
    EXPECT_THROW(
        (void)mc::decode_demand_window_state(std::string_view(blob).substr(0, cut)),
        mc::run_dir_error)
        << "cut=" << cut;
  }
  std::string corrupt = blob;
  corrupt[corrupt.size() - 12] = static_cast<char>(corrupt[corrupt.size() - 12] ^ 0x08);
  EXPECT_THROW((void)mc::decode_demand_window_state(corrupt), mc::run_dir_error);
  // Wrong-kind container: an experiment window fed to the demand decoder.
  EXPECT_THROW((void)mc::decode_demand_window_state(mc::encode_experiment_window_state(
                   sample_experiment_window_state(false))),
               mc::run_dir_error);
}

TEST(RunDirCodecTest, ExperimentWindowTruncationAndCorruptionRejected) {
  const std::string blob =
      mc::encode_experiment_window_state(sample_experiment_window_state(false));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{12}, blob.size() / 2,
                                blob.size() - 9, blob.size() - 1}) {
    EXPECT_THROW(
        (void)mc::decode_experiment_window_state(std::string_view(blob).substr(0, cut)),
        mc::run_dir_error)
        << "cut=" << cut;
  }
  std::string corrupt = blob;
  corrupt[40] = static_cast<char>(corrupt[40] ^ 0x10);
  EXPECT_THROW((void)mc::decode_experiment_window_state(corrupt), mc::run_dir_error);
  EXPECT_THROW((void)mc::decode_experiment_window_state(
                   mc::encode_demand_window_state(sample_demand_window_state())),
               mc::run_dir_error);
}

TEST(RunDirCodecTest, DemandWindowBoundsMismatchRejected) {
  // Bounds that disagree with the counts vector must not decode even though
  // the container checksum is valid (a would-be writer bug, not bit rot).
  auto s = sample_demand_window_state();
  s.result.target_end += 1;  // 6-target window, 5 counts
  EXPECT_THROW((void)mc::decode_demand_window_state(mc::encode_demand_window_state(s)),
               mc::run_dir_error);

  auto e = sample_experiment_window_state(false);
  e.result.shard_end += 1;  // 3-shard window, 2 states
  EXPECT_THROW(
      (void)mc::decode_experiment_window_state(mc::encode_experiment_window_state(e)),
      mc::run_dir_error);
}

// ---------------------------------------------------------------------------
// Demand and experiment manifests
// ---------------------------------------------------------------------------

mc::demand_manifest small_demand_manifest() {
  mc::demand_manifest m;
  m.target_pfd = {1e-4, 2e-4, 5e-5, 0.0, 1e-3, 7e-4, 2e-6};
  m.demands = 10'000;
  m.seed = 77;
  m.window = 3;
  return m;
}

mc::experiment_manifest small_experiment_manifest() {
  mc::experiment_config cfg;
  cfg.samples = 2'000;
  cfg.seed = 55;
  cfg.shards = 8;
  cfg.engine = mc::sampling_engine::exact;
  return mc::make_experiment_manifest(
      core::make_safety_grade_universe(12, 0.0, 0.05, 0.6, 3), cfg, /*window=*/2);
}

TEST(RunDirCodecTest, DemandManifestRoundTripAndFingerprint) {
  const mc::demand_manifest m = small_demand_manifest();
  const mc::demand_manifest back = mc::decode_demand_manifest(mc::encode_demand_manifest(m));
  EXPECT_EQ(back.demands, m.demands);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.window, m.window);
  ASSERT_EQ(back.target_pfd.size(), m.target_pfd.size());
  for (std::size_t i = 0; i < m.target_pfd.size(); ++i) {
    EXPECT_TRUE(bits_equal(back.target_pfd[i], m.target_pfd[i]));
  }
  EXPECT_EQ(mc::demand_manifest_fingerprint(back), mc::demand_manifest_fingerprint(m));

  // Any identity knob moves the fingerprint.
  mc::demand_manifest other = m;
  other.window += 1;
  EXPECT_NE(mc::demand_manifest_fingerprint(other), mc::demand_manifest_fingerprint(m));
  other = m;
  other.target_pfd[0] += 1e-9;
  EXPECT_NE(mc::demand_manifest_fingerprint(other), mc::demand_manifest_fingerprint(m));

  EXPECT_NE(mc::describe_manifest_json(m).find("\"demand_campaign\""), std::string::npos);
}

TEST(RunDirCodecTest, ExperimentManifestRoundTripAndFingerprint) {
  const mc::experiment_manifest m = small_experiment_manifest();
  const mc::experiment_manifest back =
      mc::decode_experiment_manifest(mc::encode_experiment_manifest(m));
  EXPECT_EQ(back.samples, m.samples);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.shards, m.shards);
  EXPECT_EQ(back.engine, m.engine);
  EXPECT_EQ(back.keep_samples, m.keep_samples);
  EXPECT_TRUE(bits_equal(back.ci_level, m.ci_level));
  EXPECT_EQ(back.window, m.window);
  ASSERT_EQ(back.universe.size(), m.universe.size());
  for (std::size_t i = 0; i < m.universe.size(); ++i) {
    EXPECT_TRUE(bits_equal(back.universe[i].p, m.universe[i].p));
    EXPECT_TRUE(bits_equal(back.universe[i].q, m.universe[i].q));
  }
  EXPECT_EQ(mc::experiment_manifest_fingerprint(back),
            mc::experiment_manifest_fingerprint(m));

  mc::experiment_manifest other = m;
  other.seed += 1;
  EXPECT_NE(mc::experiment_manifest_fingerprint(other),
            mc::experiment_manifest_fingerprint(m));

  EXPECT_NE(mc::describe_manifest_json(m).find("\"experiment_shards\""),
            std::string::npos);
}

TEST(RunDirCodecTest, ManifestKindsNeverCrossDecode) {
  const std::string scenario = mc::encode_manifest([] {
    mc::sweep_manifest m;
    m.axes = small_axes();
    m.cell_count = mc::enumerate_cells(m.axes).size();
    return m;
  }());
  const std::string demand = mc::encode_demand_manifest(small_demand_manifest());
  const std::string experiment =
      mc::encode_experiment_manifest(small_experiment_manifest());

  EXPECT_EQ(mc::peek_state_kind(scenario), mc::state_kind::manifest);
  EXPECT_EQ(mc::peek_state_kind(demand), mc::state_kind::demand_manifest);
  EXPECT_EQ(mc::peek_state_kind(experiment), mc::state_kind::experiment_manifest);

  EXPECT_THROW((void)mc::decode_manifest(demand), mc::run_dir_error);
  EXPECT_THROW((void)mc::decode_demand_manifest(experiment), mc::run_dir_error);
  EXPECT_THROW((void)mc::decode_experiment_manifest(scenario), mc::run_dir_error);
}

TEST(RunDirCodecTest, InvalidManifestPayloadsRejected) {
  // A checksum-valid container whose payload fails validation must still be
  // rejected loudly (window = 0 can never enumerate cells).
  mc::demand_manifest d = small_demand_manifest();
  d.window = 0;
  EXPECT_THROW((void)mc::decode_demand_manifest(mc::encode_demand_manifest(d)),
               mc::run_dir_error);
}

// ---------------------------------------------------------------------------
// Rejection: truncation, version, kind, corruption
// ---------------------------------------------------------------------------

TEST(RunDirCodecTest, RetiredAndUnknownEngineTagsRejected) {
  // Engine wire tags are append-only: 0 belonged to the retired `fast`
  // engine and 2 to the retired `legacy` engine.  Each is refused by name,
  // in a decoded blob (the payload reader's stats::wire_error, wrapped like
  // every malformed payload) and in validate().
  mc::experiment_manifest m = small_experiment_manifest();
  const std::pair<std::uint32_t, std::string> retired_tags[] = {
      {0,
       "sampling engine 0: the 'fast' engine was retired; 'fast-simd' samples the same "
       "distribution with different per-seed values, and 'exact' is the bit-exact reference"},
      {2,
       "sampling engine 2: the 'legacy' engine was retired; 'exact' gives the same results "
       "bit for bit"},
  };
  for (const auto& [tag, retired] : retired_tags) {
    m.engine = static_cast<mc::sampling_engine>(tag);
    try {
      (void)mc::decode_experiment_manifest(mc::encode_experiment_manifest(m));
      ADD_FAILURE() << "tag " << tag << " decoded";
    } catch (const mc::run_dir_error& e) {
      EXPECT_EQ(std::string(e.what()), "run_dir: state payload malformed: wire: " + retired);
    }
    try {
      m.validate();
      ADD_FAILURE() << "tag " << tag << " validated";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "experiment_manifest: " + retired);
    }
  }
  m.engine = static_cast<mc::sampling_engine>(4);
  try {
    (void)mc::decode_experiment_manifest(mc::encode_experiment_manifest(m));
    ADD_FAILURE() << "tag 4 decoded";
  } catch (const mc::run_dir_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_dir: state payload malformed: wire: unknown sampling engine 4");
  }
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(RunDirCodecTest, TruncatedFilesRejected) {
  const std::string blob = mc::encode_accumulator_state(sample_accumulator_state(false));
  // Every strict prefix must be rejected: header-short, payload-short, and
  // checksum-short files all read as "truncated", never as garbage data.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{23},
                                blob.size() / 2, blob.size() - 9, blob.size() - 1}) {
    EXPECT_THROW((void)mc::decode_accumulator_state(std::string_view(blob).substr(0, cut)),
                 mc::run_dir_error)
        << "cut=" << cut;
  }
}

TEST(RunDirCodecTest, TrailingGarbageRejected) {
  std::string blob = mc::encode_accumulator_state(sample_accumulator_state(false));
  blob += "extra";
  EXPECT_THROW((void)mc::decode_accumulator_state(blob), mc::run_dir_error);
}

TEST(RunDirCodecTest, BadMagicRejected) {
  std::string blob = mc::encode_accumulator_state(sample_accumulator_state(false));
  blob[0] = 'X';
  EXPECT_THROW((void)mc::decode_accumulator_state(blob), mc::run_dir_error);
}

TEST(RunDirCodecTest, VersionMismatchRejected) {
  const std::string blob = mc::encode_accumulator_state(sample_accumulator_state(false));
  // Bump the version field (offset 8) and repair the checksum so the version
  // check itself — not the checksum — is what fires.
  const std::string bumped =
      patch_and_rechecksum(blob, 8, mc::kStateFormatVersion + 1);
  try {
    (void)mc::decode_accumulator_state(bumped);
    FAIL() << "version mismatch not detected";
  } catch (const mc::run_dir_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(RunDirCodecTest, KindMismatchRejected) {
  mc::demand_tally t;
  t.demands = 10;
  t.failures = {1, 2};
  const std::string blob = mc::encode_demand_tally(t);
  try {
    (void)mc::decode_accumulator_state(blob);
    FAIL() << "kind mismatch not detected";
  } catch (const mc::run_dir_error& e) {
    EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos) << e.what();
  }
}

TEST(RunDirCodecTest, CorruptPayloadRejected) {
  std::string blob = mc::encode_accumulator_state(sample_accumulator_state(false));
  blob[30] = static_cast<char>(blob[30] ^ 0x40);  // flip a payload bit
  try {
    (void)mc::decode_accumulator_state(blob);
    FAIL() << "corruption not detected";
  } catch (const mc::run_dir_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(RunDirCodecTest, CorruptChecksumRejected) {
  std::string blob = mc::encode_accumulator_state(sample_accumulator_state(false));
  blob.back() = static_cast<char>(blob.back() ^ 0x01);
  EXPECT_THROW((void)mc::decode_accumulator_state(blob), mc::run_dir_error);
}

// ---------------------------------------------------------------------------
// Bytes pinned by value: a round trip passes for any codec whose writer and
// reader drift together, so every state record's encoded container, and the
// grid and experiment tables, are pinned by FNV-1a digest of fixed values.
// ---------------------------------------------------------------------------

mc::accumulator_state pinned_accumulator(bool keep_samples) {
  mc::accumulator_state s;
  s.samples = 4;
  s.theta1 = {4, 1.25e-3, 2.5e-7, -3.0e-11, 7.0e-14, 0.0, 3.0e-3};
  s.theta2 = {4, 2.5e-5, 1.0e-9, 2.0e-14, 3.0e-18, -0.0, 1.0e-4};
  s.n1_positive = 3;
  s.n2_positive = 1;
  s.n1_zero_pfd = 1;
  s.n2_zero_pfd = 3;
  s.keeping_samples = keep_samples;
  if (keep_samples) {
    s.theta1_samples = {1e-3, 0.0, 3e-3, 1e-3};
    s.theta2_samples = {0.0, 0.0, 1e-4, 0.0};
  }
  return s;
}

mc::scenario_cell_result pinned_cell_result(unsigned versions, unsigned votes, double rho) {
  mc::scenario_cell_result r;
  r.cell = {1, "many_small", rho, 0.5, 2, versions, votes, 4};
  r.seed = 0x0123456789abcdefULL;
  r.shards = 3;
  r.state = pinned_accumulator(false);
  r.mean_theta1 = 1.25e-3;
  r.mean_theta2 = 2.5e-5;
  r.prob_n1_positive = 0.75;
  r.prob_n2_positive = 0.25;
  r.risk_ratio = 1.0 / 3.0;
  r.p_max_true = 0.05;
  r.p_max_naive = 0.025;
  return r;
}

std::uint64_t digest(std::string_view bytes) { return reldiv::stats::fnv1a64(bytes); }

TEST(RunDirCodecTest, PinnedBytesOfEveryStateRecord) {
  EXPECT_EQ(digest(mc::encode_accumulator_state(pinned_accumulator(false))),
            0x6548a379f7c01012ULL);
  EXPECT_EQ(digest(mc::encode_accumulator_state(pinned_accumulator(true))),
            0x668f4cb7a2126101ULL);

  mc::demand_tally tally;
  tally.demands = 1'000'000;
  tally.failures = {0, 17, 3, 999'999, 42};
  EXPECT_EQ(digest(mc::encode_demand_tally(tally)), 0xa3dbb0347af59a3eULL);

  EXPECT_EQ(digest(mc::encode_cell_state({0xfeedfaceULL, 7, pinned_cell_result(2, 2, 0.25)})),
            0x3173e45cd692e936ULL);
  EXPECT_EQ(
      digest(mc::encode_cell_state({0xfeedfaceULL, 8, pinned_cell_result(3, 2, -0.25)})),
      0x0576f274bcf5f3a9ULL);

  for (const bool keep : {false, true}) {
    mc::experiment_window_state e{0xabcdef0122334455ULL, 2, {}};
    e.result = {4, 6, {pinned_accumulator(keep), pinned_accumulator(keep)}};
    EXPECT_EQ(digest(mc::encode_experiment_window_state(e)),
              keep ? 0x84b2cfa12a7d305aULL : 0x3d6b1f2d5a021171ULL);
  }

  mc::demand_window_state d{0xfeedface12345678ULL, 3, {}};
  d.result = {96, 101, 50'000, {7, 0, 12, 999, 1}};
  EXPECT_EQ(digest(mc::encode_demand_window_state(d)), 0xe8b12542de84fde5ULL);

  const mc::cached_result cached{mc::job_kind::experiment_shards, 0x1122334455667788ULL,
                                 "samples,shards\n4,3\n", "{\n  \"samples\": 4\n}\n"};
  EXPECT_EQ(digest(mc::encode_cached_result(cached)), 0xd36d38ef959bfc7cULL);
}

TEST(RunDirCodecTest, PinnedBytesOfTheGridAndExperimentTables) {
  mc::grid_result grid;
  grid.cells = {pinned_cell_result(2, 2, 0.25), pinned_cell_result(3, 2, -0.25)};
  grid.cells[1].state.theta2.m2 = 0.0;
  EXPECT_EQ(digest(grid.to_csv()), 0x6325cc8921968934ULL);
  EXPECT_EQ(digest(grid.to_json()), 0xff5d1a84fb6ce0b0ULL);

  mc::experiment_result r = mc::experiment_accumulator::from_state(pinned_accumulator(false))
                                .to_result(0.99);
  r.shards = 8;
  EXPECT_EQ(digest(mc::experiment_result_csv(r)), 0x7de3b4ce5757fe8bULL);
  EXPECT_EQ(digest(mc::experiment_result_json(r)), 0x5a3de18594b7ef71ULL);
}

// ---------------------------------------------------------------------------
// Filesystem layer
// ---------------------------------------------------------------------------

TEST_F(RunDirTest, AtomicWriteLeavesNoTemp) {
  const fs::path target = dir_ / "state.bin";
  mc::write_file_atomic(target, "payload-bytes");
  EXPECT_EQ(mc::read_file(target), "payload-bytes");
  // Overwrite goes through the same tmp+rename path.
  mc::write_file_atomic(target, "second");
  EXPECT_EQ(mc::read_file(target), "second");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "tmp sibling left behind";
}

TEST_F(RunDirTest, ReadMissingFileThrows) {
  EXPECT_THROW((void)mc::read_file(dir_ / "nope.state"), mc::run_dir_error);
}

TEST_F(RunDirTest, CellPathsAreStable) {
  EXPECT_EQ(mc::cell_state_path(dir_, 7).filename().string(), "cell_000007.state");
  EXPECT_EQ(mc::cell_claim_path(dir_, 123456).filename().string(), "cell_123456.claim");
  EXPECT_EQ(mc::manifest_path(dir_).filename().string(), "manifest.state");
}

TEST_F(RunDirTest, StateFileOnDiskRoundTrip) {
  const auto s = sample_accumulator_state(true);
  mc::write_file_atomic(dir_ / "acc.state", mc::encode_accumulator_state(s));
  expect_states_equal(s, mc::decode_accumulator_state(mc::read_file(dir_ / "acc.state")));

  // A file truncated on disk (killed writer without atomic rename) rejects.
  const std::string blob = mc::encode_accumulator_state(s);
  {
    std::ofstream f(dir_ / "short.state", std::ios::binary);
    f.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  }
  EXPECT_THROW((void)mc::decode_accumulator_state(mc::read_file(dir_ / "short.state")),
               mc::run_dir_error);
}

}  // namespace
