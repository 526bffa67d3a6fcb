#include "mc/experiment.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/simd_sampler.hpp"
#include "mc/sampler.hpp"
#include "mc/shard_lanes.hpp"
#include "stats/counter_rng.hpp"
#include "stats/random.hpp"

namespace reldiv::mc {

namespace {

/// Legacy sparse shard: per-sample heap-allocated index vectors and scalar
/// merges.  Retained as the benchmark/regression baseline for the bitset
/// engine.
experiment_accumulator run_shard_legacy(const core::fault_universe& u,
                                        std::uint64_t samples, stats::rng r,
                                        bool keep_samples) {
  experiment_accumulator acc(keep_samples);
  for (std::uint64_t s = 0; s < samples; ++s) {
    const version a = sample_version(u, r);
    const version b = sample_version(u, r);
    const double t1 = pfd_of(a, u);
    const double t2 = pair_pfd(a, b, u);
    acc.add(t1, t2, a.has_fault(), !common_faults(a, b).empty());
  }
  return acc;
}

/// Bitset shard: the two scratch masks are allocated once up front and
/// rewritten in place, so the steady-state loop performs zero heap
/// allocations; n2_positive falls out of the fused intersection kernel.
experiment_accumulator run_shard_mask(const core::fault_universe& u,
                                      std::uint64_t samples, stats::rng r,
                                      bool keep_samples, bool exact_stream) {
  experiment_accumulator acc(keep_samples);
  core::fault_mask a(u.size());
  core::fault_mask b(u.size());
  // Word-parallel sampling costs 53 - countr_zero(threshold) rng words per
  // 64 faults per version; the paired sampler costs 64 per 64 faults per
  // PAIR.  Pick bit-slice only when the shared p's threshold makes it the
  // cheaper of the two (e.g. p = 0.5 needs a single word per 64 faults).
  bool word_parallel = false;
  if (!exact_stream && u.has_uniform_p()) {
    const std::uint64_t t = core::bernoulli_threshold(u.uniform_p());
    word_parallel = t == 0 || t == (std::uint64_t{1} << core::kBernoulliBits) ||
                    std::countr_zero(t) >= core::kBernoulliBits - 32;
  }
  // Grouped universes (runs of equal p covering whole mask words, e.g.
  // concatenated make_homogeneous blocks) bit-slice the uniform words and
  // fall back to the paired kernel elsewhere.  The paired kernel realizes p
  // on the 2^-32 grid; for universes with faults rarer than that grid
  // resolves (relative error > 1e-6) fall back to the 53-bit exact-stream
  // kernel rather than silently oversample them.
  const bool grouped = !exact_stream && !word_parallel && u.has_grouped_p() &&
                       u.fast32_grid_safe();
  const bool use_exact_kernel =
      exact_stream || (!word_parallel && !grouped && !u.fast32_grid_safe());
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (use_exact_kernel) {
      sample_version_mask(u, r, a);
      sample_version_mask(u, r, b);
    } else if (word_parallel) {
      sample_version_mask_uniform(u, r, a);
      sample_version_mask_uniform(u, r, b);
    } else if (grouped) {
      sample_version_pair_grouped(u, r, a, b);
    } else {
      sample_version_pair_fast(u, r, a, b);
    }
    const double t1 = core::masked_q_sum(a, u.q_array());
    const auto pair = core::intersect_q_sum(a, b, u.q_array());
    acc.add(t1, pair.pfd, a.any(), pair.any_common);
  }
  return acc;
}

/// Everything the fast-simd engine precomputes ONCE per run (never per
/// shard, never per sample): the p-sorted relayout of the universe, the
/// frozen counter-sampling plan over the permuted layout, and the dispatch
/// level.  Pinning the level here also guarantees every shard of a run uses
/// the same kernels even if a test flips the cap concurrently.
struct simd_engine_context {
  core::universe_permutation perm;
  core::counter_sample_plan plan;
  core::simd_level level = core::simd_level::scalar;
};

simd_engine_context make_simd_engine_context(const core::fault_universe& u) {
  simd_engine_context ctx;
  ctx.perm = core::make_p_sorted_permutation(u);
  ctx.plan = core::make_counter_sample_plan(ctx.perm.universe);
  ctx.level = core::active_simd_level();
  return ctx;
}

/// fast-simd shards [shard_begin, shard_end), eight per lane group over the
/// PERMUTED universe: lane l of a group draws its shard's stream
/// counter_stream_key(seed, shard), pair s consuming counters [s*D,
/// (s+1)*D), and the two-channel fold (votes 2, ω = 1) records exactly what
/// experiment_accumulator::add of masked_q_sum and intersect_q_sum records
/// (1.0·x = x; both sums ascend from +0.0).  θ accumulation runs over the
/// permuted q layout, which is part of this engine's pinned stream contract —
/// per-seed values are not comparable to the `fast` engine, but are
/// bit-identical across thread counts, shard windows and SIMD levels.
template <typename Merge>
void run_simd_shards(const core::fault_universe& u, const experiment_config& cfg,
                     unsigned shard_begin, unsigned shard_end, Merge&& merge) {
  const simd_engine_context ctx = make_simd_engine_context(u);
  const core::fault_universe& pu = ctx.perm.universe;
  const lane_fold fold{2, 2, 1.0, pu.q_array(), ctx.level, cfg.keep_samples};
  run_shard_lanes(
      make_shard_plan(cfg.samples, cfg.shards), shard_begin, shard_end, cfg.threads, fold,
      [&](unsigned first, unsigned active) {
        std::array<std::uint64_t, core::kXoshiroLanes> keys{};
        for (unsigned l = 0; l < active; ++l) {
          keys[l] = stats::counter_stream_key(cfg.seed, first + l);
        }
        return [&ctx, &pu, keys](std::uint64_t step, unsigned live, lane_channels& channels) {
          core::sample_pair_counter_lanes(ctx.plan, pu, keys, step, channels[0], channels[1],
                                          live, ctx.level);
        };
      },
      std::forward<Merge>(merge));
}

experiment_accumulator run_shard(const core::fault_universe& u, std::uint64_t samples,
                                 stats::rng r, bool keep_samples,
                                 sampling_engine engine) {
  switch (engine) {
    case sampling_engine::legacy:
      return run_shard_legacy(u, samples, std::move(r), keep_samples);
    case sampling_engine::exact:
      return run_shard_mask(u, samples, std::move(r), keep_samples,
                            /*exact_stream=*/true);
    case sampling_engine::fast_simd:
      // fast-simd shards run in lane groups; the run-level loops route them
      // to run_simd_shards before reaching this dispatcher.
      throw std::logic_error("run_shard: fast_simd must be routed at run level");
    case sampling_engine::fast:
    default:
      return run_shard_mask(u, samples, std::move(r), keep_samples,
                            /*exact_stream=*/false);
  }
}

}  // namespace

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
  if (config.engine == sampling_engine::fast_simd) {
    run_simd_shards(u, config, shard_begin, shard_end,
                    [&acc](unsigned /*shard*/, experiment_accumulator&& shard_acc) {
                      acc.merge(shard_acc);
                    });
    return;
  }
  run_shards(
      make_shard_plan(config.samples, config.shards), config.seed, shard_begin, shard_end,
      config.threads,
      [&u, &config](unsigned /*shard*/, std::uint64_t samples, stats::rng& r) {
        return run_shard(u, samples, r, config.keep_samples, config.engine);
      },
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
  if (engine != sampling_engine::fast && engine != sampling_engine::exact &&
      engine != sampling_engine::legacy && engine != sampling_engine::fast_simd) {
    throw std::invalid_argument("experiment_manifest: unknown sampling engine");
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
  const experiment_config cfg = m.config(threads);

  experiment_window_result out;
  out.shard_begin = shard_begin;
  out.shard_end = shard_end;
  out.shard_states.reserve(shard_end - shard_begin);
  // Per-shard states stay separate (see experiment_window_result): both shard
  // loops already merge — here: append — in ascending shard order regardless
  // of the thread count.
  const auto append = [&out](unsigned /*shard*/, experiment_accumulator&& acc) {
    out.shard_states.push_back(acc.state());
  };
  if (cfg.engine == sampling_engine::fast_simd) {
    run_simd_shards(m.universe, cfg, shard_begin, shard_end, append);
    return out;
  }
  run_shards(
      make_shard_plan(cfg.samples, cfg.shards), cfg.seed, shard_begin, shard_end, threads,
      [&](unsigned /*shard*/, std::uint64_t samples, stats::rng& r) {
        return run_shard(m.universe, samples, r, cfg.keep_samples, cfg.engine);
      },
      append);
  return out;
}

}  // namespace reldiv::mc
