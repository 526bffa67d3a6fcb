#pragma once
// Multithreaded Monte-Carlo experiment runner: estimates every quantity the
// paper derives in closed form (means, σs, P(N>0), full PFD distributions)
// by simulating large populations of independently developed versions and
// pairs.  The benches use it to validate the analytics; the sensitivity
// studies (§6) use it where no closed form exists.
//
// Determinism contract: the sample budget is decomposed into a fixed number
// of logical rng shards (experiment_config::shards, default
// default_logical_shards(samples)), run eight per lane group by
// mc::run_shard_lanes, whose every step draws one pair per shard and records
// it in the same pass; so for a given (seed, samples, shards, engine) the
// result is bit-identical regardless of experiment_config::threads or the
// machine's core count.  Thread count is a throughput knob, never a results
// knob.

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault_universe.hpp"
#include "mc/shard_runner.hpp"
#include "stats/confint.hpp"
#include "stats/descriptive.hpp"

namespace reldiv::mc {

/// Which inner sampling kernel drives the experiment.  Both draw from the
/// same distribution; they differ in speed and rng-stream layout.  Every
/// engine runs its shards eight at a time through one pair loop,
/// mc::run_shard_lanes: one shard stream per lane, each step recording one
/// pair of every lane at once.  The values are the
/// manifest wire tags.  Tags 0 and 2 belonged to retired engines and stay
/// reserved: 0 to `fast` (xoshiro pair kernels that realized p on the 2^-32
/// grid; fast-simd samples the same distribution), 2 to `legacy` (the
/// original sparse std::vector<uint32_t> path, bit-identical to `exact`).
enum class sampling_engine : std::uint32_t {
  /// The xoshiro pair step (core::xoshiro_pair_step_lanes) on the
  /// universe's own thresholds, consuming each shard's stream
  /// decision-for-decision like two mc::sample_version_mask draws per pair
  /// and summing θ1 and θ2 as it draws: the bit-exact reference, pinned by
  /// tests/mc_mask_equivalence_test.cpp against a sparse per-shard loop
  /// (tests/sparse_oracle.hpp).
  exact = 1,
  /// Counter-based SIMD engine, the default: the universe is relaid out with
  /// core::make_p_sorted_permutation (equal-p faults gathered into whole
  /// mask words, so heterogeneous universes become mostly bit-sliceable),
  /// a core::counter_sample_plan is frozen over the permuted layout, and
  /// shards run in groups of eight (mc::run_shard_lanes), one shard's
  /// counter stream per 64-bit lane: each step draws one version pair per
  /// shard and records the eight pairs in the same pass, summing θ1 and θ2
  /// from each mask word of the lanes as it is drawn
  /// (core::counter_pair_step_lanes), under runtime SIMD dispatch.  Per-fault
  /// probabilities are realized exactly on bit-sliced words, and on the
  /// other words on the 2^-32 grid, or exactly (53-bit) when that grid would
  /// inflate the universe's Σp or Σpq by more than a 1e-6 relative factor
  /// (see core::make_counter_sample_plan).  Every
  /// draw is a pure function of (counter stream key, counter), so shard
  /// streams are derived O(1) via stats::counter_stream_key instead of jump
  /// walks, and results are bit-identical across thread counts AND across
  /// SIMD dispatch levels (RELDIV_SIMD is a throughput knob, like threads).
  /// NOT stream-compatible with `exact`: the rng layout and the per-word
  /// accumulation order follow the permuted universe, pinned by the counter
  /// pair step's scalar level (the contract in core/simd_sampler.hpp).
  fast_simd = 3,
};

/// The engine's name in spec files, on the command line and in written
/// specs: "exact" or "fast-simd".
[[nodiscard]] std::string_view sampling_engine_name(sampling_engine engine);

/// Every engine a spec, a flag or a manifest may name, in wire-tag order.
[[nodiscard]] std::vector<sampling_engine> sampling_engines();

/// The engine spelled `name`.  Throws std::invalid_argument listing the
/// names for an unknown one, and saying what replaces a retired one
/// (`fast`, `legacy`).
[[nodiscard]] sampling_engine parse_sampling_engine(std::string_view name);

/// The engine wire tag `tag` stands for.  Throws std::invalid_argument
/// naming the retired engine for tags 0 and 2 and "unknown sampling engine
/// N" for any other tag no engine holds.
[[nodiscard]] sampling_engine sampling_engine_from_tag(std::uint32_t tag);

/// Level of the reported confidence intervals unless a config says otherwise.
inline constexpr double kDefaultCiLevel = 0.99;

struct experiment_config {
  std::uint64_t samples = 100'000;   ///< number of version-pairs to draw
  std::uint64_t seed = 1;
  unsigned threads = 0;              ///< workers; 0 = the CPUs the calling thread may run on.
                                     ///< Affects throughput only, never results.
  unsigned shards = 0;               ///< logical rng streams; 0 = the budget-scaled
                                     ///< default_logical_shards(samples).  Part of the
                                     ///< result's identity: changing it changes the
                                     ///< rng layout.
  bool keep_samples = false;         ///< retain per-sample PFDs (memory!)
  double ci_level = kDefaultCiLevel;  ///< level for the reported intervals
  sampling_engine engine = sampling_engine::fast_simd;
};

/// Effective logical shard count for a config (resolves the 0 default and
/// the cap at `samples`).
[[nodiscard]] unsigned experiment_shard_count(const experiment_config& config);

struct estimate {
  double value = 0.0;
  stats::interval ci;                ///< CI at experiment_config::ci_level
};

struct experiment_result {
  std::uint64_t samples = 0;
  unsigned shards = 0;  ///< logical shard layout that produced the result
                        ///< (part of its identity; 0 when accumulated
                        ///< outside the sharded runners)

  // Single-version statistics (channel A of each simulated pair).
  stats::running_moments theta1;
  // Pair (1-out-of-2) statistics.
  stats::running_moments theta2;

  std::uint64_t n1_positive = 0;  ///< count of versions with >= 1 fault
  std::uint64_t n2_positive = 0;  ///< count of pairs with >= 1 common fault
  std::uint64_t n1_zero_pfd = 0;  ///< versions with PFD == 0
  std::uint64_t n2_zero_pfd = 0;  ///< pairs with PFD == 0

  double ci_level = kDefaultCiLevel;

  std::optional<std::vector<double>> theta1_samples;
  std::optional<std::vector<double>> theta2_samples;

  [[nodiscard]] estimate mean_theta1() const;
  [[nodiscard]] estimate mean_theta2() const;
  [[nodiscard]] double stddev_theta1() const { return theta1.stddev(); }
  [[nodiscard]] double stddev_theta2() const { return theta2.stddev(); }
  [[nodiscard]] estimate prob_n1_positive() const;
  [[nodiscard]] estimate prob_n2_positive() const;
  /// Empirical eq. (10) ratio.
  [[nodiscard]] double risk_ratio() const;
};

/// Plain serializable snapshot of an experiment_accumulator: write the
/// fields to any medium, read them back, and experiment_accumulator::
/// from_state resumes the accumulation bit-exactly.  The sample vectors are
/// empty unless the accumulator was keeping samples.
struct accumulator_state {
  std::uint64_t samples = 0;
  stats::running_moments_state theta1;
  stats::running_moments_state theta2;
  std::uint64_t n1_positive = 0;
  std::uint64_t n2_positive = 0;
  std::uint64_t n1_zero_pfd = 0;
  std::uint64_t n2_zero_pfd = 0;
  bool keeping_samples = false;
  std::vector<double> theta1_samples;
  std::vector<double> theta2_samples;
};

/// Streaming accumulator for pair experiments: feed (θ1, θ2, N1>0, N2>0)
/// observations in any number of chunks, merge accumulators built
/// elsewhere, checkpoint to a plain struct and resume.  This is the unit
/// every shard of the sharded runners produces, and the API >10^9-sample
/// studies drive directly.
class experiment_accumulator {
 public:
  experiment_accumulator() = default;
  explicit experiment_accumulator(bool keep_samples) : keep_samples_(keep_samples) {}

  /// Record one simulated pair.
  void add(double theta1, double theta2, bool version_has_fault,
           bool pair_has_common_fault);
  /// Fold another accumulator in (its samples logically follow this one's).
  void merge(const experiment_accumulator& other);

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] bool keeping_samples() const noexcept { return keep_samples_; }
  [[nodiscard]] const stats::running_moments& theta1() const noexcept { return theta1_; }
  [[nodiscard]] const stats::running_moments& theta2() const noexcept { return theta2_; }
  [[nodiscard]] std::uint64_t n1_positive() const noexcept { return n1_positive_; }
  [[nodiscard]] std::uint64_t n2_positive() const noexcept { return n2_positive_; }

  /// Checkpoint / resume.
  [[nodiscard]] accumulator_state state() const;
  [[nodiscard]] static experiment_accumulator from_state(const accumulator_state& s);

  /// Package the accumulated statistics as an experiment_result.
  [[nodiscard]] experiment_result to_result(double ci_level = kDefaultCiLevel) const;

 private:
  std::uint64_t samples_ = 0;
  stats::running_moments theta1_;
  stats::running_moments theta2_;
  std::uint64_t n1_positive_ = 0;
  std::uint64_t n2_positive_ = 0;
  std::uint64_t n1_zero_pfd_ = 0;
  std::uint64_t n2_zero_pfd_ = 0;
  bool keep_samples_ = false;
  std::vector<double> theta1_samples_;
  std::vector<double> theta2_samples_;
};

/// Streaming building block: run logical shards [shard_begin, shard_end) of
/// the experiment `config` defines (its shard layout comes from
/// experiment_shard_count) and merge the per-shard results into `acc` in
/// ascending shard order.  Running all shards — in one call or split across
/// any sequence of calls with checkpoints in between — produces exactly the
/// run_experiment result for the same config.
void run_experiment_shards(const core::fault_universe& u,
                           const experiment_config& config, unsigned shard_begin,
                           unsigned shard_end, experiment_accumulator& acc);

/// Simulate `config.samples` independent pairs of versions from `u`.
[[nodiscard]] experiment_result run_experiment(const core::fault_universe& u,
                                               const experiment_config& config);

// ---------------------------------------------------------------------------
// Distributed experiment: the manifest + shard-window job unit
// ---------------------------------------------------------------------------

/// Identity of one huge run_experiment distributed as shard windows: the
/// universe atom-for-atom, the experiment identity knobs (samples, seed,
/// RESOLVED logical shard count, engine, keep_samples, ci_level), and the
/// window size that slices the shard range into job units.  Window w covers
/// shards [w*window, min((w+1)*window, shards)); each shard is a pure
/// function of (universe, config, shard index), so a window result is a pure
/// function of (manifest, window index).
struct experiment_manifest {
  core::fault_universe universe;
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
  unsigned shards = 0;  ///< resolved logical shard count (never 0 — use
                        ///< make_experiment_manifest to resolve a config)
  sampling_engine engine = sampling_engine::fast_simd;
  bool keep_samples = false;
  double ci_level = kDefaultCiLevel;
  unsigned window = 0;  ///< shards per distributed window

  /// The experiment_config this manifest pins (threads is a throughput knob,
  /// never part of the identity).
  [[nodiscard]] experiment_config config(unsigned threads = 0) const {
    return experiment_config{.samples = samples,
                             .seed = seed,
                             .threads = threads,
                             .shards = shards,
                             .keep_samples = keep_samples,
                             .ci_level = ci_level,
                             .engine = engine};
  }
  /// ceil(shards / window).
  [[nodiscard]] std::uint64_t window_count() const;
  /// [shard_begin, shard_end) of window `index`; throws std::out_of_range
  /// past window_count().
  [[nodiscard]] std::pair<unsigned, unsigned> window_bounds(std::uint64_t index) const;
  /// Throws std::invalid_argument on samples == 0, window == 0, or a shard
  /// count that disagrees with the config's resolved layout.
  void validate() const;
};

/// Pin a (universe, config) pair as a distributable manifest: resolves the
/// config's logical shard count (the 0 default is budget-scaled, so it must
/// be frozen before windows can be enumerated) and records `window` shards
/// per job unit (0 = one window spanning every shard).
[[nodiscard]] experiment_manifest make_experiment_manifest(
    const core::fault_universe& u, const experiment_config& config, unsigned window = 0);

/// One computed shard window.  The per-shard accumulator states are kept
/// SEPARATE: experiment_accumulator::merge is a Chan pairwise fold and is not
/// floating-point-associative, so bit-identity with the single-process
/// run_experiment requires the final merge to replay its exact left fold —
/// empty accumulator, then every shard's accumulator in ascending shard
/// order.  Window files therefore carry one state per shard and the merge
/// walks them in order.
struct experiment_window_result {
  unsigned shard_begin = 0;
  unsigned shard_end = 0;
  std::vector<accumulator_state> shard_states;  ///< shards [begin, end), in order
};

/// Pure job unit of the distributed experiment driver, mirroring
/// run_scenario_cell: compute every shard of window `index` independently.
[[nodiscard]] experiment_window_result run_experiment_window(const experiment_manifest& m,
                                                             std::uint64_t index,
                                                             unsigned threads = 0);

}  // namespace reldiv::mc
