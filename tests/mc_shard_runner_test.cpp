// The deterministic sharded runner subsystem: results must be a pure
// function of (seed, samples, shards) — bit-identical across thread counts
// and machines — and the streaming accumulator must checkpoint/resume
// exactly.  This file pins the determinism contract the README documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/simd_sampler.hpp"
#include "mc/aliasing.hpp"
#include "mc/correlated.hpp"
#include "mc/experiment.hpp"
#include "mc/shard_runner.hpp"
#include "stats/random.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace {

using namespace reldiv;
using namespace reldiv::mc;

// Thread counts the regression tests sweep: serial, small, odd (to shake out
// divisibility assumptions), and whatever this machine's core count is.
const std::vector<unsigned> kThreadSweep = {1, 2, 7, 0};

// --------------------------------------------------------------------------
// shard_plan / run_shards primitives
// --------------------------------------------------------------------------

TEST(ShardPlan, PartitionsTheSampleBudgetExactly) {
  for (const std::uint64_t samples : {1ull, 7ull, 255ull, 256ull, 257ull, 100000ull}) {
    const auto plan = make_shard_plan(samples);
    EXPECT_LE(plan.shard_count, kDefaultLogicalShards);
    EXPECT_GE(plan.shard_count, 1u);
    std::uint64_t total = 0;
    for (unsigned s = 0; s < plan.shard_count; ++s) {
      EXPECT_EQ(plan.shard_offset(s), total) << "shard " << s;
      total += plan.shard_samples(s);
    }
    EXPECT_EQ(total, samples);
  }
  // The default layout scales with the budget (default_logical_shards): a
  // 10-sample run is one shard, 4096 samples get 64, and the ceiling is
  // kDefaultLogicalShards from 16384 samples up.  Explicit requests are
  // honored but capped at the sample budget, never at the thread count.
  EXPECT_EQ(make_shard_plan(10).shard_count, default_logical_shards(10));
  EXPECT_EQ(make_shard_plan(10).shard_count, 1u);
  EXPECT_EQ(make_shard_plan(4096).shard_count, 64u);
  EXPECT_EQ(make_shard_plan(1u << 20).shard_count, kDefaultLogicalShards);
  EXPECT_EQ(make_shard_plan(1u << 20, 64).shard_count, 64u);
  EXPECT_EQ(make_shard_plan(10, 256).shard_count, 10u);
  EXPECT_THROW((void)make_shard_plan(0), std::invalid_argument);
}

TEST(ResolveThreads, ZeroMeansTheCpusTheCallingThreadMayRunOn) {
  EXPECT_EQ(resolve_threads(3, 8), 3u);
  EXPECT_EQ(resolve_threads(16, 8), 8u);
  EXPECT_EQ(resolve_threads(0, 0), 1u);
  EXPECT_GE(resolve_threads(0, 8), 1u);
#if defined(__linux__)
  // A thread pinned to one CPU of its mask (a worker under `taskset -c 1`)
  // resolves 0 to one thread, whatever hardware_concurrency() says; the
  // mask is restored before any expectation can return early.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(original), &original), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &original)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
  const unsigned pinned = resolve_threads(0, 8);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(original), &original), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(resolve_threads(0, 1000),
            static_cast<unsigned>(std::min(CPU_COUNT(&original), 1000)));
#endif
}

TEST(RunShards, MergesInShardOrderAndDerivesCanonicalStreams) {
  const auto plan = make_shard_plan(1000, 16);
  for (const unsigned threads : kThreadSweep) {
    std::vector<unsigned> merge_order;
    std::vector<std::uint64_t> first_draws(plan.shard_count);
    std::vector<std::uint64_t> samples_seen(plan.shard_count);
    run_shards(
        plan, /*seed=*/99, threads,
        // Workers write only their own shard's slots (no gtest assertions in
        // here: they are not thread-safe); everything is checked post-join.
        [&](unsigned shard, std::uint64_t samples, stats::rng& r) {
          samples_seen[shard] = samples;
          first_draws[shard] = r();
          return shard;
        },
        [&](unsigned shard, unsigned&& body_result) {
          EXPECT_EQ(shard, body_result);
          merge_order.push_back(shard);
        });
    ASSERT_EQ(merge_order.size(), plan.shard_count);
    for (unsigned s = 0; s < plan.shard_count; ++s) {
      EXPECT_EQ(merge_order[s], s);
      EXPECT_EQ(samples_seen[s], plan.shard_samples(s));
      // Shard s always sees stats::rng::stream(seed, s), however many
      // workers pulled shards off the queue.
      stats::rng reference = stats::rng::stream(99, s);
      EXPECT_EQ(first_draws[s], reference()) << "shard " << s;
    }
  }
}

TEST(RunShards, BodyExceptionIsRethrownOnTheCallingThread) {
  const auto plan = make_shard_plan(64, 8);
  EXPECT_THROW(
      run_shards(
          plan, 1, /*threads=*/3,
          [](unsigned shard, std::uint64_t, stats::rng&) -> int {
            if (shard == 5) throw std::runtime_error("boom");
            return 0;
          },
          [](unsigned, int&&) {}),
      std::runtime_error);
}

// --------------------------------------------------------------------------
// The headline regression: results must not depend on the thread count
// --------------------------------------------------------------------------

void expect_identical(const experiment_result& a, const experiment_result& b,
                      const char* label) {
  EXPECT_EQ(a.theta1.mean(), b.theta1.mean()) << label;
  EXPECT_EQ(a.theta2.mean(), b.theta2.mean()) << label;
  EXPECT_EQ(a.theta1.stddev(), b.theta1.stddev()) << label;
  EXPECT_EQ(a.theta2.stddev(), b.theta2.stddev()) << label;
  EXPECT_EQ(a.theta1.skewness(), b.theta1.skewness()) << label;
  EXPECT_EQ(a.n1_positive, b.n1_positive) << label;
  EXPECT_EQ(a.n2_positive, b.n2_positive) << label;
  EXPECT_EQ(a.n1_zero_pfd, b.n1_zero_pfd) << label;
  EXPECT_EQ(a.n2_zero_pfd, b.n2_zero_pfd) << label;
  ASSERT_EQ(a.theta1_samples.has_value(), b.theta1_samples.has_value()) << label;
  if (a.theta1_samples) {
    EXPECT_EQ(*a.theta1_samples, *b.theta1_samples) << label;
    EXPECT_EQ(*a.theta2_samples, *b.theta2_samples) << label;
  }
}

TEST(ShardedExperiment, ResultsAreBitIdenticalAcrossThreadCounts) {
  const auto u = core::make_random_universe(130, 0.4, 0.8, 99);
  for (const auto engine : {sampling_engine::exact, sampling_engine::fast_simd}) {
    experiment_config cfg;
    cfg.samples = 20000;
    cfg.seed = 2024;
    cfg.engine = engine;
    cfg.keep_samples = true;
    cfg.threads = 1;
    const auto reference = run_experiment(u, cfg);
    for (const unsigned threads : kThreadSweep) {
      cfg.threads = threads;
      const auto res = run_experiment(u, cfg);
      expect_identical(reference, res,
                       threads == 0 ? "threads=hardware" : "threads=explicit");
    }
  }
}

TEST(ShardedExperiment, UniformPWordParallelPathIsAlsoThreadInvariant) {
  // fast-simd's bit-sliced words have their own counter cadence (one draw
  // per word at p = 0.5); make sure their shard layout is thread-invariant
  // too.
  const auto u = core::make_homogeneous_universe(128, 0.5, 0.8 / 128.0);
  experiment_config cfg;
  cfg.samples = 30000;
  cfg.seed = 7;
  cfg.engine = sampling_engine::fast_simd;
  cfg.threads = 1;
  const auto reference = run_experiment(u, cfg);
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto res = run_experiment(u, cfg);
    expect_identical(reference, res, "uniform-p");
  }
}

TEST(ShardedCorrelated, ResultsAreBitIdenticalAcrossThreadCounts) {
  const auto u = core::make_random_universe(90, 0.4, 0.8, 55);
  const common_cause_mixture mix(u, 0.3, 1.5);
  const gaussian_copula_sampler cop(u, 0.4);
  correlated_config cfg;
  cfg.threads = 1;
  const auto ref_mix = run_correlated(u, mix, 30000, 5, cfg);
  const auto ref_cop = run_correlated(u, cop, 30000, 5, cfg);
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto res_mix = run_correlated(u, mix, 30000, 5, cfg);
    EXPECT_EQ(res_mix.mean_theta1, ref_mix.mean_theta1);
    EXPECT_EQ(res_mix.mean_theta2, ref_mix.mean_theta2);
    EXPECT_EQ(res_mix.prob_n1_positive, ref_mix.prob_n1_positive);
    EXPECT_EQ(res_mix.prob_n2_positive, ref_mix.prob_n2_positive);
    EXPECT_EQ(res_mix.risk_ratio, ref_mix.risk_ratio);
    const auto res_cop = run_correlated(u, cop, 30000, 5, cfg);
    EXPECT_EQ(res_cop.mean_theta1, ref_cop.mean_theta1);
    EXPECT_EQ(res_cop.mean_theta2, ref_cop.mean_theta2);
    EXPECT_EQ(res_cop.prob_n2_positive, ref_cop.prob_n2_positive);
  }
}

// --------------------------------------------------------------------------
// Correlated runner: closed forms and the scalar per-shard loop
// --------------------------------------------------------------------------

TEST(ShardedCorrelated, MatchesSerialReferenceWithinCi) {
  // The mixture's channels are independent and each version is stressed with
  // probability rho, so P(N1 > 0) is a two-term sum over the stress state
  // and P(N2 > 0) a 2x2 sum over both channels' states, each term a product
  // over faults of the conditional absence probabilities.  E[Θ1] and E[Θ2]
  // depend only on the preserved marginals.
  const auto u = core::make_random_universe(10, 0.3, 0.5, 3);
  const double rho = 0.4;
  const double stress = 2.0;
  const common_cause_mixture mix(u, rho, stress);
  const std::uint64_t samples = 200000;
  const auto sharded = run_correlated(u, mix, samples, 5);
  EXPECT_EQ(sharded.samples, samples);
  EXPECT_NEAR(sharded.mean_theta1, core::single_version_moments(u).mean, 5e-4);
  EXPECT_NEAR(sharded.mean_theta2, core::pair_moments(u).mean, 5e-4);

  // Per-fault presence probability in each stress state, as the mixture
  // builds it: stressed p·stress capped at 1, relaxed keeping the marginal.
  std::vector<double> stressed;
  std::vector<double> relaxed;
  for (const auto& atom : u) {
    stressed.push_back(std::min(1.0, stress * atom.p));
    relaxed.push_back(std::max(0.0, (atom.p - rho * stressed.back()) / (1.0 - rho)));
  }
  const std::vector<double>* states[] = {&stressed, &relaxed};
  const double weight[] = {rho, 1.0 - rho};
  double p1_none = 0.0;
  double p2_none = 0.0;
  for (int a = 0; a < 2; ++a) {
    double none = weight[a];
    for (const double p : *states[a]) none *= 1.0 - p;
    p1_none += none;
    for (int b = 0; b < 2; ++b) {
      double common_none = weight[a] * weight[b];
      for (std::size_t i = 0; i < u.size(); ++i) {
        common_none *= 1.0 - (*states[a])[i] * (*states[b])[i];
      }
      p2_none += common_none;
    }
  }
  const double p1 = 1.0 - p1_none;
  const double p2 = 1.0 - p2_none;
  const auto n = static_cast<double>(samples);
  EXPECT_NEAR(sharded.prob_n1_positive, p1, 5.0 * std::sqrt(p1 * (1.0 - p1) / n));
  EXPECT_NEAR(sharded.prob_n2_positive, p2, 5.0 * std::sqrt(p2 * (1.0 - p2) / n));
  EXPECT_NEAR(sharded.risk_ratio, p2 / p1, 0.02);
}

/// run_correlated laid out one shard at a time: shard s draws version a,
/// then version b, through `sampler.sample_mask` on
/// stats::rng::stream(seed, s), records masked_q_sum and intersect_q_sum with
/// experiment_accumulator::add, and the shards merge in ascending order.
template <typename Sampler>
correlated_result scalar_correlated_loop(const core::fault_universe& u,
                                         const Sampler& sampler, std::uint64_t samples,
                                         std::uint64_t seed) {
  const shard_plan plan = make_shard_plan(samples);
  experiment_accumulator total;
  core::fault_mask a;
  core::fault_mask b;
  for (unsigned shard = 0; shard < plan.shard_count; ++shard) {
    stats::rng r = stats::rng::stream(seed, shard);
    experiment_accumulator acc;
    for (std::uint64_t s = 0; s < plan.shard_samples(shard); ++s) {
      sampler.sample_mask(r, a);
      sampler.sample_mask(r, b);
      const core::pair_intersection_result pair = core::intersect_q_sum(a, b, u.q_array());
      acc.add(core::masked_q_sum(a, u.q_array()), pair.pfd, a.any(), pair.any_common);
    }
    total.merge(acc);
  }
  correlated_result out;
  out.samples = total.samples();
  out.shards = plan.shard_count;
  const auto n = static_cast<double>(total.samples());
  out.mean_theta1 = total.theta1().mean();
  out.mean_theta2 = total.theta2().mean();
  out.prob_n1_positive = static_cast<double>(total.n1_positive()) / n;
  out.prob_n2_positive = static_cast<double>(total.n2_positive()) / n;
  out.risk_ratio = static_cast<double>(total.n2_positive()) /
                   static_cast<double>(total.n1_positive());
  return out;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ShardedCorrelated, MatchesScalarShardLoopAtEveryLevel) {
  // The mixture draws through the xoshiro pair step, the copula (both signs of
  // rho) and the aliased model through per-lane sample_mask; each must
  // record exactly what the scalar shard loop records, at any thread count
  // and every SIMD level the host runs.  3001 pairs over the default 46
  // shards: five full lane groups and a partial one of six.
  const auto u = core::make_random_universe(90, 0.4, 0.8, 55);
  const common_cause_mixture mix(u, 0.3, 1.5);
  const gaussian_copula_sampler cop(u, 0.4);
  const gaussian_copula_sampler anti(u, -0.3);
  const aliased_model aliased = split_into_mistakes(u, 3);
  const core::fault_universe aliased_u = aliased.effective_universe();
  const std::uint64_t samples = 3001;
  const std::uint64_t seed = 19;
  ASSERT_EQ(make_shard_plan(samples).shard_count, 46u);
  const auto check = [&](const char* name, const core::fault_universe& cu,
                         const auto& sampler) {
    const correlated_result want = scalar_correlated_loop(cu, sampler, samples, seed);
    for (const core::simd_level level :
         {core::simd_level::scalar, core::simd_level::avx2, core::simd_level::avx512}) {
      if (level > core::detected_simd_level()) continue;
      core::set_simd_level_cap(level);
      for (const unsigned threads : {1u, 3u}) {
        correlated_config cfg;
        cfg.threads = threads;
        const correlated_result got = run_correlated(cu, sampler, samples, seed, cfg);
        const std::string label = std::string(name) + " at " + core::simd_level_name(level) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(got.samples, want.samples) << label;
        EXPECT_EQ(got.shards, want.shards) << label;
        EXPECT_TRUE(bits_equal(got.mean_theta1, want.mean_theta1)) << label;
        EXPECT_TRUE(bits_equal(got.mean_theta2, want.mean_theta2)) << label;
        EXPECT_TRUE(bits_equal(got.prob_n1_positive, want.prob_n1_positive)) << label;
        EXPECT_TRUE(bits_equal(got.prob_n2_positive, want.prob_n2_positive)) << label;
        EXPECT_TRUE(bits_equal(got.risk_ratio, want.risk_ratio)) << label;
      }
      core::clear_simd_level_cap();
    }
  };
  check("mixture", u, mix);
  check("copula", u, cop);
  check("copula rho<0", u, anti);
  check("aliased_model", aliased_u, aliased);
}

TEST(ShardedCorrelated, MismatchedSamplerThrowsAcrossThreads) {
  // The mask-size guard must propagate out of worker threads, from the
  // lane-by-lane draw (the copula) and from the mixture's pair step.
  const auto u = core::make_random_universe(20, 0.4, 0.8, 1);
  const auto other = core::make_random_universe(10, 0.4, 0.8, 2);
  const gaussian_copula_sampler wrong(other, 0.3);
  const common_cause_mixture wrong_mixture(other, 0.3, 1.5);
  for (const unsigned threads : {1u, 4u}) {
    correlated_config cfg;
    cfg.threads = threads;
    EXPECT_THROW((void)run_correlated(u, wrong, 1000, 3, cfg), std::out_of_range);
    EXPECT_THROW((void)run_correlated(u, wrong_mixture, 1000, 3, cfg), std::out_of_range);
  }
  EXPECT_THROW((void)run_correlated(u, wrong, 0, 3), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Streaming accumulator: chunked feeding, checkpoint/resume
// --------------------------------------------------------------------------

TEST(ExperimentAccumulator, StateRoundTripResumesExactly) {
  experiment_accumulator a(/*keep_samples=*/true);
  stats::rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const double t1 = r.uniform();
    a.add(t1, t1 * r.uniform(), r.bernoulli(0.7), r.bernoulli(0.2));
  }
  // Serialize, restore, and continue feeding both in lockstep: the restored
  // accumulator must stay bit-identical to the original.
  auto b = experiment_accumulator::from_state(a.state());
  stats::rng ra(31);
  stats::rng rb(31);
  for (int i = 0; i < 1000; ++i) {
    const double t1a = ra.uniform();
    a.add(t1a, t1a * ra.uniform(), ra.bernoulli(0.7), ra.bernoulli(0.2));
    const double t1b = rb.uniform();
    b.add(t1b, t1b * rb.uniform(), rb.bernoulli(0.7), rb.bernoulli(0.2));
  }
  const auto res_a = a.to_result();
  const auto res_b = b.to_result();
  EXPECT_EQ(res_a.samples, res_b.samples);
  expect_identical(res_a, res_b, "state round trip");
}

TEST(ExperimentAccumulator, MergeRejectsKeepSamplesModeMismatch) {
  // A mismatch would silently break the "kept vectors hold every
  // accumulated sample" invariant (samples_ grows, the vectors don't).
  experiment_accumulator keeping(/*keep_samples=*/true);
  experiment_accumulator counting;
  counting.add(0.1, 0.05, true, false);
  EXPECT_THROW(keeping.merge(counting), std::invalid_argument);
  EXPECT_THROW(counting.merge(keeping), std::invalid_argument);
}

TEST(ExperimentAccumulator, MergeMatchesSequentialFeeding) {
  experiment_accumulator whole;
  experiment_accumulator left;
  experiment_accumulator right;
  stats::rng r(23);
  for (int i = 0; i < 2000; ++i) {
    const double t1 = r.uniform();
    const double t2 = t1 * r.uniform();
    const bool n1 = r.bernoulli(0.6);
    const bool n2 = r.bernoulli(0.1);
    whole.add(t1, t2, n1, n2);
    (i < 1200 ? left : right).add(t1, t2, n1, n2);
  }
  left.merge(right);
  EXPECT_EQ(left.samples(), whole.samples());
  EXPECT_EQ(left.n1_positive(), whole.n1_positive());
  EXPECT_EQ(left.n2_positive(), whole.n2_positive());
  EXPECT_EQ(left.theta1().count(), whole.theta1().count());
  // Counts and means agree to float noise (the merge uses the Pébay
  // pairwise-combination formulas, not per-sample replay).
  EXPECT_NEAR(left.theta1().mean(), whole.theta1().mean(), 1e-13);
  EXPECT_NEAR(left.theta2().variance(), whole.theta2().variance(), 1e-13);
}

TEST(StreamingExperiment, CheckpointedChunksMatchUninterruptedRunExactly) {
  const auto u = core::make_random_universe(64, 0.4, 0.7, 123);
  experiment_config cfg;
  cfg.samples = 10007;  // exercises the remainder distribution
  cfg.seed = 404;
  cfg.keep_samples = true;
  const auto uninterrupted = run_experiment(u, cfg);
  const unsigned shard_count = experiment_shard_count(cfg);
  ASSERT_EQ(shard_count, default_logical_shards(cfg.samples));
  ASSERT_GT(shard_count, 101u);  // the windows below assume a 3-way split

  // Process the shards in three chunks with a serialize/restore between
  // each — as a >10^9-sample study spread over multiple job slots would.
  experiment_accumulator acc(cfg.keep_samples);
  run_experiment_shards(u, cfg, 0, 100, acc);
  auto resumed = experiment_accumulator::from_state(acc.state());
  run_experiment_shards(u, cfg, 100, 101, resumed);
  auto resumed2 = experiment_accumulator::from_state(resumed.state());
  run_experiment_shards(u, cfg, 101, shard_count, resumed2);

  EXPECT_EQ(resumed2.samples(), cfg.samples);
  expect_identical(uninterrupted, resumed2.to_result(cfg.ci_level), "checkpointed");
}

TEST(StreamingExperiment, ShardWindowValidation) {
  const auto u = core::make_random_universe(8, 0.4, 0.5, 3);
  experiment_config cfg;
  cfg.samples = 1000;
  experiment_accumulator acc;
  EXPECT_THROW(run_experiment_shards(u, cfg, 10, 5, acc), std::invalid_argument);
  EXPECT_THROW(run_experiment_shards(u, cfg, 0, experiment_shard_count(cfg) + 1, acc),
               std::invalid_argument);
  cfg.samples = 0;
  EXPECT_THROW(run_experiment_shards(u, cfg, 0, 1, acc), std::invalid_argument);
}

TEST(StreamingExperiment, CustomShardCountIsHonoredAndDeterministic) {
  const auto u = core::make_random_universe(32, 0.4, 0.6, 9);
  experiment_config cfg;
  cfg.samples = 5000;
  cfg.seed = 1;
  cfg.shards = 16;
  EXPECT_EQ(experiment_shard_count(cfg), 16u);
  cfg.threads = 1;
  const auto a = run_experiment(u, cfg);
  cfg.threads = 5;
  const auto b = run_experiment(u, cfg);
  expect_identical(a, b, "custom shards");
}

}  // namespace
