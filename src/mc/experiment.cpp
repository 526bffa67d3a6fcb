#include "mc/experiment.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/simd_sampler.hpp"
#include "mc/shard_lanes.hpp"
#include "stats/counter_rng.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

namespace {

/// The one engine name table: spec files, the command line and the spec
/// writer all read it.
struct engine_row {
  sampling_engine engine;
  std::string_view name;
};
constexpr engine_row kEngines[] = {
    {sampling_engine::exact, "exact"},
    {sampling_engine::fast_simd, "fast-simd"},
};

/// The retired engines: their names and wire tags stay reserved, and a spec,
/// a flag or a manifest naming one is told what replaces it.
struct retired_engine_row {
  std::uint32_t tag;
  std::string_view name;
  const char* message;
};
constexpr retired_engine_row kRetiredEngines[] = {
    {0, "fast",
     "the 'fast' engine was retired; 'fast-simd' samples the same distribution with "
     "different per-seed values, and 'exact' is the bit-exact reference"},
    {2, "legacy", "the 'legacy' engine was retired; 'exact' gives the same results bit for bit"},
};

/// The one engine entry point of run_experiment_shards and
/// run_experiment_window: shards [shard_begin, shard_end) of the experiment
/// `cfg` defines, eight per lane group through run_shard_lanes, each handed
/// to `merge(shard, experiment_accumulator&&)` in ascending shard order.
/// Every engine records a pair as two channels with votes 2 and ω = 1, which
/// is exactly what experiment_accumulator::add of masked_q_sum and
/// intersect_q_sum records (1.0·x = x; both sums ascend from +0.0).  The
/// dispatch level and every per-run table are fixed here, once per call, so
/// all shards of a run use the same kernels even if a test flips the cap
/// concurrently.
///   * exact: lane l draws versions a and b of each pair from
///     stats::rng::stream(seed, shard) with core::xoshiro_pair_step_lanes
///     against the universe's own thresholds (no stress draw), making the
///     decisions of two sample_version_mask calls and summing θ1 and θ2 as
///     it draws; the tables are built once per call.
///   * fast-simd: the universe is relaid out by make_p_sorted_permutation and
///     a counter_sample_plan frozen over it; lane l draws its shard's stream
///     counter_stream_key(seed, shard), pair s consuming counters [s*D,
///     (s+1)*D), drawn and recorded by core::counter_pair_step_lanes.  θ
///     accumulation runs over the permuted q layout, which is
///     part of this engine's pinned stream contract — per-seed values are
///     not comparable to the `exact` engine, but are bit-identical across
///     thread counts, shard windows and SIMD levels.
template <typename Merge>
void run_engine_shards(const core::fault_universe& u, const experiment_config& cfg,
                       unsigned shard_begin, unsigned shard_end, Merge&& merge) {
  const shard_plan plan = make_shard_plan(cfg.samples, cfg.shards);
  const core::simd_level level = core::active_simd_level();
  if (cfg.engine == sampling_engine::fast_simd) {
    const core::universe_permutation perm = core::make_p_sorted_permutation(u);
    const core::fault_universe& pu = perm.universe;
    const core::counter_sample_plan counters = core::make_counter_sample_plan(pu);
    const lane_fold fold{2, 2, 1.0, pu.q_array(), level, cfg.keep_samples};
    run_shard_lanes(
        plan, shard_begin, shard_end, cfg.threads, fold,
        [&](unsigned first, unsigned active) {
          std::array<std::uint64_t, core::kXoshiroLanes> keys{};
          for (unsigned l = 0; l < active; ++l) {
            keys[l] = stats::counter_stream_key(cfg.seed, first + l);
          }
          return [&counters, &pu, keys, level](std::uint64_t step, unsigned live,
                                               core::accumulator_lanes& acc,
                                               core::pair_thetas* thetas) {
            core::counter_pair_step_lanes(counters, pu, keys, step, acc, live, level, thetas);
          };
        },
        std::forward<Merge>(merge));
    return;
  }
  const core::xoshiro_lane_tables tables =
      core::make_threshold_lane_tables(u.bernoulli_thresholds());
  const lane_fold fold{2, 2, 1.0, u.q_array(), level, cfg.keep_samples};
  run_table_lanes(tables, plan, cfg.seed, shard_begin, shard_end, cfg.threads, fold,
                  std::forward<Merge>(merge));
}

}  // namespace

std::string_view sampling_engine_name(sampling_engine engine) {
  for (const engine_row& row : kEngines) {
    if (row.engine == engine) return row.name;
  }
  throw std::invalid_argument("unknown sampling engine " +
                              std::to_string(static_cast<std::uint32_t>(engine)));
}

std::vector<sampling_engine> sampling_engines() {
  std::vector<sampling_engine> out;
  for (const engine_row& row : kEngines) out.push_back(row.engine);
  return out;
}

sampling_engine parse_sampling_engine(std::string_view name) {
  for (const engine_row& row : kEngines) {
    if (row.name == name) return row.engine;
  }
  for (const retired_engine_row& row : kRetiredEngines) {
    if (row.name == name) throw std::invalid_argument(row.message);
  }
  throw std::invalid_argument("expected exact or fast-simd, got '" + std::string(name) + "'");
}

sampling_engine sampling_engine_from_tag(std::uint32_t tag) {
  for (const engine_row& row : kEngines) {
    if (static_cast<std::uint32_t>(row.engine) == tag) return row.engine;
  }
  for (const retired_engine_row& row : kRetiredEngines) {
    if (row.tag == tag) {
      throw std::invalid_argument("sampling engine " + std::to_string(tag) + ": " +
                                  row.message);
    }
  }
  throw std::invalid_argument("unknown sampling engine " + std::to_string(tag));
}

void experiment_accumulator::add(double theta1, double theta2,
                                 bool version_has_fault, bool pair_has_common_fault) {
  ++samples_;
  theta1_.add(theta1);
  theta2_.add(theta2);
  if (version_has_fault) ++n1_positive_;
  if (pair_has_common_fault) ++n2_positive_;
  if (theta1 == 0.0) ++n1_zero_pfd_;
  if (theta2 == 0.0) ++n2_zero_pfd_;
  if (keep_samples_) {
    theta1_samples_.push_back(theta1);
    theta2_samples_.push_back(theta2);
  }
}

void experiment_accumulator::merge(const experiment_accumulator& other) {
  if (keep_samples_ != other.keep_samples_) {
    // Merging mismatched modes would silently break the "kept vectors hold
    // every accumulated sample" invariant.
    throw std::invalid_argument(
        "experiment_accumulator::merge: keep-samples mode mismatch");
  }
  samples_ += other.samples_;
  theta1_.merge(other.theta1_);
  theta2_.merge(other.theta2_);
  n1_positive_ += other.n1_positive_;
  n2_positive_ += other.n2_positive_;
  n1_zero_pfd_ += other.n1_zero_pfd_;
  n2_zero_pfd_ += other.n2_zero_pfd_;
  if (keep_samples_) {
    theta1_samples_.insert(theta1_samples_.end(), other.theta1_samples_.begin(),
                           other.theta1_samples_.end());
    theta2_samples_.insert(theta2_samples_.end(), other.theta2_samples_.begin(),
                           other.theta2_samples_.end());
  }
}

accumulator_state experiment_accumulator::state() const {
  accumulator_state s;
  s.samples = samples_;
  s.theta1 = theta1_.state();
  s.theta2 = theta2_.state();
  s.n1_positive = n1_positive_;
  s.n2_positive = n2_positive_;
  s.n1_zero_pfd = n1_zero_pfd_;
  s.n2_zero_pfd = n2_zero_pfd_;
  s.keeping_samples = keep_samples_;
  s.theta1_samples = theta1_samples_;
  s.theta2_samples = theta2_samples_;
  return s;
}

experiment_accumulator experiment_accumulator::from_state(const accumulator_state& s) {
  experiment_accumulator acc(s.keeping_samples);
  acc.samples_ = s.samples;
  acc.theta1_ = stats::running_moments::from_state(s.theta1);
  acc.theta2_ = stats::running_moments::from_state(s.theta2);
  acc.n1_positive_ = s.n1_positive;
  acc.n2_positive_ = s.n2_positive;
  acc.n1_zero_pfd_ = s.n1_zero_pfd;
  acc.n2_zero_pfd_ = s.n2_zero_pfd;
  acc.theta1_samples_ = s.theta1_samples;
  acc.theta2_samples_ = s.theta2_samples;
  return acc;
}

experiment_result experiment_accumulator::to_result(double ci_level) const {
  experiment_result result;
  result.samples = samples_;
  result.ci_level = ci_level;
  result.theta1 = theta1_;
  result.theta2 = theta2_;
  result.n1_positive = n1_positive_;
  result.n2_positive = n2_positive_;
  result.n1_zero_pfd = n1_zero_pfd_;
  result.n2_zero_pfd = n2_zero_pfd_;
  if (keep_samples_) {
    result.theta1_samples = theta1_samples_;
    result.theta2_samples = theta2_samples_;
  }
  return result;
}

estimate experiment_result::mean_theta1() const {
  return {theta1.mean(),
          stats::mean_ci(theta1.mean(), theta1.stddev(), theta1.count(), ci_level)};
}

estimate experiment_result::mean_theta2() const {
  return {theta2.mean(),
          stats::mean_ci(theta2.mean(), theta2.stddev(), theta2.count(), ci_level)};
}

estimate experiment_result::prob_n1_positive() const {
  return {static_cast<double>(n1_positive) / static_cast<double>(samples),
          stats::wilson(n1_positive, samples, ci_level)};
}

estimate experiment_result::prob_n2_positive() const {
  return {static_cast<double>(n2_positive) / static_cast<double>(samples),
          stats::wilson(n2_positive, samples, ci_level)};
}

double experiment_result::risk_ratio() const {
  if (n1_positive == 0) return 0.0;
  return static_cast<double>(n2_positive) / static_cast<double>(n1_positive);
}

unsigned experiment_shard_count(const experiment_config& config) {
  return make_shard_plan(config.samples, config.shards).shard_count;
}

void run_experiment_shards(const core::fault_universe& u,
                           const experiment_config& config, unsigned shard_begin,
                           unsigned shard_end, experiment_accumulator& acc) {
  if (config.samples == 0) {
    throw std::invalid_argument("run_experiment: samples > 0");
  }
  run_engine_shards(u, config, shard_begin, shard_end,
                    [&acc](unsigned /*shard*/, experiment_accumulator&& shard_acc) {
                      acc.merge(shard_acc);
                    });
}

experiment_result run_experiment(const core::fault_universe& u,
                                 const experiment_config& config) {
  experiment_accumulator acc(config.keep_samples);
  const unsigned shards = experiment_shard_count(config);
  run_experiment_shards(u, config, 0, shards, acc);
  experiment_result result = acc.to_result(config.ci_level);
  result.shards = shards;
  return result;
}

std::uint64_t experiment_manifest::window_count() const {
  validate();
  return (static_cast<std::uint64_t>(shards) + window - 1) / window;
}

std::pair<unsigned, unsigned> experiment_manifest::window_bounds(
    std::uint64_t index) const {
  const std::uint64_t windows = window_count();
  if (index >= windows) {
    throw std::out_of_range("experiment_manifest: window index " + std::to_string(index) +
                            " out of range (windows: " + std::to_string(windows) + ")");
  }
  const unsigned begin = static_cast<unsigned>(index * window);
  const unsigned end = static_cast<unsigned>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(begin) + window, shards));
  return {begin, end};
}

void experiment_manifest::validate() const {
  if (samples == 0) throw std::invalid_argument("experiment_manifest: samples must be > 0");
  if (window == 0) throw std::invalid_argument("experiment_manifest: window must be > 0");
  if (!(ci_level > 0.0 && ci_level < 1.0)) {
    throw std::invalid_argument("experiment_manifest: ci_level outside (0, 1)");
  }
  try {
    (void)sampling_engine_from_tag(static_cast<std::uint32_t>(engine));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("experiment_manifest: ") + e.what());
  }
  if (shards == 0 || shards != experiment_shard_count(config())) {
    throw std::invalid_argument(
        "experiment_manifest: shard count does not match the resolved layout "
        "(build manifests with make_experiment_manifest)");
  }
}

experiment_manifest make_experiment_manifest(const core::fault_universe& u,
                                             const experiment_config& config,
                                             unsigned window) {
  if (config.samples == 0) {
    throw std::invalid_argument("experiment_manifest: samples must be > 0");
  }
  experiment_manifest m;
  m.universe = u;
  m.samples = config.samples;
  m.seed = config.seed;
  m.shards = experiment_shard_count(config);
  m.engine = config.engine;
  m.keep_samples = config.keep_samples;
  m.ci_level = config.ci_level;
  m.window = window == 0 ? m.shards : window;
  m.validate();
  return m;
}

experiment_window_result run_experiment_window(const experiment_manifest& m,
                                               std::uint64_t index, unsigned threads) {
  const auto [shard_begin, shard_end] = m.window_bounds(index);
  experiment_window_result out;
  out.shard_begin = shard_begin;
  out.shard_end = shard_end;
  out.shard_states.reserve(shard_end - shard_begin);
  // Per-shard states stay separate (see experiment_window_result): the
  // engine loop appends them in ascending shard order whatever the thread
  // count.
  run_engine_shards(m.universe, m.config(threads), shard_begin, shard_end,
                    [&out](unsigned /*shard*/, experiment_accumulator&& acc) {
                      out.shard_states.push_back(acc.state());
                    });
  return out;
}

}  // namespace reldiv::mc
