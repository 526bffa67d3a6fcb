// Equivalence and property tests for the packed-bitmask Monte-Carlo engine:
// the exact-stream mask sampler must reproduce the sparse sampler of
// sparse_oracle.hpp decision-for-decision (same seed -> identical fault sets
// and identical theta1/theta2 streams), the `exact` engine's lane groups
// must record what a per-shard sparse loop records, bit for bit, at every
// SIMD level, fault_mask algebra must agree with the set_intersection
// reference, and the fast-simd engine's counter reference must have the
// right marginals on every word kind.  Also covers stats::binomial_deviate,
// which draws the demand campaigns' failure counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/no_common_fault.hpp"
#include "core/simd_sampler.hpp"
#include "mc/experiment.hpp"
#include "mc/sampler.hpp"
#include "mc/shard_runner.hpp"
#include "sparse_oracle.hpp"
#include "stats/counter_rng.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::mc;

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

void expect_moments_identical(const stats::running_moments_state& a,
                              const stats::running_moments_state& b,
                              const std::string& label) {
  EXPECT_EQ(a.count, b.count) << label;
  EXPECT_EQ(bits_of({a.m1, a.m2, a.m3, a.m4, a.min, a.max}),
            bits_of({b.m1, b.m2, b.m3, b.m4, b.min, b.max}))
      << label;
}

/// Every field of two accumulator states, doubles bit for bit.
void expect_states_identical(const accumulator_state& a, const accumulator_state& b,
                             const std::string& label) {
  EXPECT_EQ(a.samples, b.samples) << label;
  expect_moments_identical(a.theta1, b.theta1, label + " theta1");
  expect_moments_identical(a.theta2, b.theta2, label + " theta2");
  EXPECT_EQ(a.n1_positive, b.n1_positive) << label;
  EXPECT_EQ(a.n2_positive, b.n2_positive) << label;
  EXPECT_EQ(a.n1_zero_pfd, b.n1_zero_pfd) << label;
  EXPECT_EQ(a.n2_zero_pfd, b.n2_zero_pfd) << label;
  EXPECT_EQ(a.keeping_samples, b.keeping_samples) << label;
  EXPECT_EQ(bits_of(a.theta1_samples), bits_of(b.theta1_samples)) << label;
  EXPECT_EQ(bits_of(a.theta2_samples), bits_of(b.theta2_samples)) << label;
}

/// The experiment `cfg` run one shard at a time, as the sharded runner laid
/// it out before lane groups: shard s draws its pairs from
/// stats::rng::stream(cfg.seed, s) through `pair` (which returns θ1, θ2, N1 >
/// 0 and N2 > 0 of one pair), records them with experiment_accumulator::add,
/// and the shards merge in ascending order.
template <typename Pair>
accumulator_state scalar_shard_loop(const experiment_config& cfg, Pair&& pair) {
  const shard_plan plan = make_shard_plan(cfg.samples, cfg.shards);
  experiment_accumulator total(cfg.keep_samples);
  for (unsigned shard = 0; shard < plan.shard_count; ++shard) {
    stats::rng r = stats::rng::stream(cfg.seed, shard);
    experiment_accumulator acc(cfg.keep_samples);
    for (std::uint64_t s = 0; s < plan.shard_samples(shard); ++s) {
      const auto [t1, t2, n1, n2] = pair(r);
      acc.add(t1, t2, n1, n2);
    }
    total.merge(acc);
  }
  return total.state();
}

struct pair_record {
  double theta1;
  double theta2;
  bool n1;
  bool n2;
};

accumulator_state engine_state(const core::fault_universe& u, const experiment_config& cfg) {
  experiment_accumulator acc(cfg.keep_samples);
  run_experiment_shards(u, cfg, 0, experiment_shard_count(cfg), acc);
  return acc.state();
}

// --------------------------------------------------------------------------
// Bit-exact equivalence with the sparse sampler
// --------------------------------------------------------------------------

TEST(MaskEquivalence, ExactSamplerReproducesSparseSamplerFaultSets) {
  // Word-boundary sizes included deliberately (1, 63, 64, 65, ...).
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{200}}) {
    const auto u = core::make_random_universe(n, 0.5, 0.8, 1000 + n);
    stats::rng r_sparse(42);
    stats::rng r_mask(42);
    core::fault_mask m;
    for (int iter = 0; iter < 200; ++iter) {
      const sparse::version v = sparse::sample_version(u, r_sparse);
      sample_version_mask(u, r_mask, m);
      EXPECT_EQ(m.to_indices(), v.faults) << "n=" << n << " iter=" << iter;
      EXPECT_EQ(m.popcount(), v.fault_count());
      EXPECT_EQ(m.any(), v.has_fault());
    }
  }
}

TEST(MaskEquivalence, ExactSamplerReproducesLegacyThetaStreamsBitwise) {
  const auto u = core::make_random_universe(130, 0.4, 0.8, 99);
  stats::rng r_sparse(7);
  stats::rng r_mask(7);
  core::fault_mask a;
  core::fault_mask b;
  for (int s = 0; s < 500; ++s) {
    const sparse::version va = sparse::sample_version(u, r_sparse);
    const sparse::version vb = sparse::sample_version(u, r_sparse);
    const double t1_sparse = sparse::pfd_of(va, u);
    const double t2_sparse = sparse::pair_pfd(va, vb, u);

    sample_version_mask(u, r_mask, a);
    sample_version_mask(u, r_mask, b);
    const double t1_mask = pfd_of(a, u);
    const auto pair = pair_pfd_stats(a, b, u);

    // Same accumulation order -> bitwise-identical doubles, not just close.
    EXPECT_EQ(t1_sparse, t1_mask);
    EXPECT_EQ(t2_sparse, pair.pfd);
    EXPECT_EQ(!sparse::common_faults(va, vb).empty(), pair.any_common);
  }
}

TEST(MaskEquivalence, ExactEngineMatchesLegacyEngineExactly) {
  // The retired `legacy` engine's loop, kept here as the reference: per
  // shard, sparse sample_version draws, pfd_of / pair_pfd / common_faults,
  // experiment_accumulator::add, shards merged in ascending order.  `exact`
  // runs the same streams eight shards per lane group and must record the
  // same state bit for bit, kept samples included, at every SIMD level the
  // host runs, at any thread count and through a checkpointed split (shard
  // 101 leaves a partial group of five on each side).
  const auto u = core::make_random_universe(64, 0.4, 0.7, 123);
  experiment_config cfg;
  cfg.samples = 20000;
  cfg.seed = 2024;
  cfg.keep_samples = true;
  cfg.engine = sampling_engine::exact;
  const accumulator_state want = scalar_shard_loop(cfg, [&u](stats::rng& r) {
    const sparse::version a = sparse::sample_version(u, r);
    const sparse::version b = sparse::sample_version(u, r);
    return pair_record{sparse::pfd_of(a, u), sparse::pair_pfd(a, b, u), a.has_fault(),
                       !sparse::common_faults(a, b).empty()};
  });
  ASSERT_EQ(want.theta1_samples.size(), cfg.samples);
  for (const core::simd_level level :
       {core::simd_level::scalar, core::simd_level::avx2, core::simd_level::avx512}) {
    if (level > core::detected_simd_level()) continue;
    core::set_simd_level_cap(level);
    for (const unsigned threads : {1u, 4u}) {
      cfg.threads = threads;
      expect_states_identical(engine_state(u, cfg), want,
                              std::string(core::simd_level_name(level)) +
                                  " threads=" + std::to_string(threads));
    }
    core::clear_simd_level_cap();
  }
  const unsigned shards = experiment_shard_count(cfg);
  experiment_accumulator first(cfg.keep_samples);
  run_experiment_shards(u, cfg, 0, 101, first);
  experiment_accumulator resumed = experiment_accumulator::from_state(first.state());
  run_experiment_shards(u, cfg, 101, shards, resumed);
  expect_states_identical(resumed.state(), want, "split at shard 101");
}

// --------------------------------------------------------------------------
// fault_mask algebra vs the sparse set_intersection reference
// --------------------------------------------------------------------------

TEST(FaultMask, IntersectionPopcountAndDotMatchSparseReference) {
  stats::rng r(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(r.below(300));
    const auto u = core::make_random_universe(n, 0.6, 0.9, 77 + trial);
    const sparse::version va = sparse::sample_version(u, r);
    const sparse::version vb = sparse::sample_version(u, r);
    const auto ma = sparse::to_mask(va, n);
    const auto mb = sparse::to_mask(vb, n);

    // Round trip through the adapters.
    EXPECT_EQ(sparse::to_version(ma).faults, va.faults);

    // Intersection vs set_intersection.
    core::fault_mask mi(n);
    mi.intersect(ma, mb);
    EXPECT_EQ(mi.to_indices(), sparse::common_faults(va, vb));
    EXPECT_EQ(mi.popcount(), sparse::common_faults(va, vb).size());
    EXPECT_EQ(mi.any(), !sparse::common_faults(va, vb).empty());

    // PFD algebra, bitwise.
    EXPECT_EQ(pfd_of(ma, u), sparse::pfd_of(va, u));
    EXPECT_EQ(pair_pfd(ma, mb, u), sparse::pair_pfd(va, vb, u));

    // Tuple intersection over three versions.
    const sparse::version vc = sparse::sample_version(u, r);
    const auto mc_mask = sparse::to_mask(vc, n);
    const std::vector<core::fault_mask> tuple{ma, mb, mc_mask};
    core::fault_mask scratch;
    EXPECT_EQ(tuple_pfd(tuple, u, scratch), sparse::tuple_pfd({va, vb, vc}, u));
  }
}

TEST(FaultMask, TailBitsStayZeroAndEdgeSizesWork) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{127}, std::size_t{128}}) {
    core::fault_mask m(n);
    EXPECT_EQ(m.word_count(), (n + 63) / 64);
    EXPECT_TRUE(m.none());
    for (std::size_t i = 0; i < n; ++i) m.set(i);
    EXPECT_EQ(m.popcount(), n);  // no phantom tail bits
    EXPECT_TRUE(m.test(n - 1));
  }
  // All-present one words must respect the tail invariant too.
  const auto u = core::make_homogeneous_universe(70, 1.0, 0.01);
  std::vector<core::fault_mask> a(1);
  std::vector<core::fault_mask> b(1);
  core::sample_pair_counter_batch(core::make_counter_sample_plan(u), u,
                                  stats::counter_stream_key(3, 0), 0, 1, a, b,
                                  core::simd_level::scalar);
  EXPECT_EQ(a[0].popcount(), 70u);
  EXPECT_EQ(b[0].popcount(), 70u);
}

TEST(FaultMask, BernoulliThresholdMatchesUniformCompare) {
  // The threshold construction is what bit-exactness rests on: check the
  // comparison agrees with the double path across the 53-bit draw space
  // boundary values for an assortment of p.
  stats::rng r(11);
  for (const double p : {0.0, 1e-12, 0.05, 0.3, 0.5, 1 - 1e-12, 1.0}) {
    const std::uint64_t t = core::bernoulli_threshold(p);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t word = r();
      const std::uint64_t k = word >> 11;
      const bool via_double = static_cast<double>(k) * 0x1.0p-53 < p;
      EXPECT_EQ(k < t, via_double) << "p=" << p << " k=" << k;
    }
  }
}

// --------------------------------------------------------------------------
// The fast-simd counter stream (not stream-compatible): marginals of its
// reference, the scalar level
// --------------------------------------------------------------------------

/// Pairs [0, pairs) of counter stream `key` over u at the scalar level, in
/// batches; visit(a, b) sees each pair's masks in order.
template <typename Visit>
void for_each_counter_pair(const core::counter_sample_plan& plan, const core::fault_universe& u,
                           std::uint64_t key, std::uint64_t pairs, const Visit& visit) {
  constexpr std::uint64_t kBatch = 1000;
  std::vector<core::fault_mask> a(kBatch);
  std::vector<core::fault_mask> b(kBatch);
  for (std::uint64_t first = 0; first < pairs; first += kBatch) {
    const std::uint64_t count = std::min(kBatch, pairs - first);
    core::sample_pair_counter_batch(plan, u, key, first, count, a, b, core::simd_level::scalar);
    for (std::uint64_t j = 0; j < count; ++j) visit(a[j], b[j]);
  }
}

TEST(FastSamplers, WordParallelUniformSamplerHasExactMarginals) {
  // p = 379/1024 (about 0.37) slices in 10 draws per word: cheap enough for
  // the counter plan to bit-slice every word, the 22-fault tail included.
  const double p = 379.0 / 1024.0;
  const auto u = core::make_homogeneous_universe(150, p, 0.005);
  const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
  for (const core::counter_word_plan& w : plan.words) {
    ASSERT_EQ(w.kind, core::counter_word_kind::slice);
    ASSERT_EQ(w.slice_cost, 10);
  }
  const int iters = 40000;
  std::uint64_t present = 0;
  for_each_counter_pair(plan, u, stats::counter_stream_key(17, 0), iters,
                        [&](const core::fault_mask& a, const core::fault_mask& b) {
                          present += a.popcount() + b.popcount();
                        });
  const double freq =
      static_cast<double>(present) / (2.0 * static_cast<double>(iters) * u.size());
  // sd of the frequency ~ sqrt(p(1-p)/(2*iters*n)) ~ 1.4e-4; allow 7 sigma.
  EXPECT_NEAR(freq, p, 1e-3);
}

TEST(FastSamplers, PairedSamplerHasPerFaultMarginals) {
  // The counter stream's two per-fault word kinds, both versions of every
  // pair: paired32 words (one draw's high and low halves, p on the 2^-32
  // grid) on a grid-safe random universe, and wide53 words (one 53-bit draw
  // per version) on an off-grid one, where a thousand faults rarer than
  // 2^-32 outweigh the grid's inflation budget of eight measurable faults.
  std::vector<core::fault_atom> off_grid;
  for (int i = 0; i < 8; ++i) off_grid.push_back({0.005 * (i + 1), 0.01});
  for (int i = 0; i < 1000; ++i) off_grid.push_back({i % 2 == 0 ? 1e-12 : 2e-12, 1e-5});
  struct marginal_case {
    const char* name;
    core::fault_universe u;
    core::counter_word_kind kind;  ///< of every word
  };
  const marginal_case cases[] = {
      {"paired32", core::make_random_universe(40, 0.6, 0.8, 31),
       core::counter_word_kind::paired32},
      {"wide53", core::fault_universe(std::move(off_grid)), core::counter_word_kind::wide53},
  };
  for (const marginal_case& c : cases) {
    const core::fault_universe& u = c.u;
    const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
    for (const core::counter_word_plan& w : plan.words) ASSERT_EQ(w.kind, c.kind) << c.name;
    const int iters = 60000;
    std::vector<int> count_a(u.size(), 0);
    std::vector<int> count_b(u.size(), 0);
    for_each_counter_pair(plan, u, stats::counter_stream_key(23, 0), iters,
                          [&](const core::fault_mask& a, const core::fault_mask& b) {
                            for (const std::uint32_t f : a.to_indices()) ++count_a[f];
                            for (const std::uint32_t f : b.to_indices()) ++count_b[f];
                          });
    for (std::size_t f = 0; f < u.size(); ++f) {
      const double p = u[f].p;
      const double tol = 5.0 * std::sqrt(p * (1.0 - p) / iters) + 1e-9;
      EXPECT_NEAR(count_a[f] / static_cast<double>(iters), p, tol) << c.name << " fault " << f;
      EXPECT_NEAR(count_b[f] / static_cast<double>(iters), p, tol) << c.name << " fault " << f;
    }
  }
}

TEST(FastSamplers, FastEngineBracketsClosedFormsOnUniformAndGenericUniverses) {
  // The fast-simd engine: uniform p = 0.3 runs paired32 words (its threshold
  // is too costly to slice), uniform p = 5/16 bit-sliced words, generic p
  // paired32 words after the relayout.
  const auto uniform_u = core::make_homogeneous_universe(100, 0.3, 0.005);
  const auto sliced_u = core::make_homogeneous_universe(100, 0.3125, 0.005);
  const auto generic_u = core::make_random_universe(100, 0.4, 0.8, 61);
  for (const auto* u : {&uniform_u, &sliced_u, &generic_u}) {
    experiment_config cfg;
    cfg.samples = 150000;
    cfg.seed = 9;
    cfg.engine = sampling_engine::fast_simd;
    cfg.ci_level = 0.9999;
    const auto res = run_experiment(*u, cfg);
    EXPECT_TRUE(res.mean_theta1().ci.contains(core::single_version_moments(*u).mean));
    EXPECT_TRUE(res.mean_theta2().ci.contains(core::pair_moments(*u).mean));
    EXPECT_TRUE(res.prob_n1_positive().ci.contains(core::prob_some_fault(*u)));
    EXPECT_TRUE(res.prob_n2_positive().ci.contains(core::prob_some_common_fault(*u)));
  }
}

TEST(FastSamplers, RareFaultUniverseFallsBackToExactKernel) {
  // Every fault far below the 2^-32 grid that paired32 words use: the
  // fast-simd engine must fall back to wide53 words, one 53-bit draw per
  // fault per version, rather than realize each fault at p = 2^-32 (a ~233x
  // oversample of the whole universe).  (p values differ so no word is
  // uniform and bit-sliced.)
  std::vector<core::fault_atom> atoms(50, core::fault_atom{1e-12, 0.01});
  for (std::size_t i = 0; i < atoms.size(); i += 2) atoms[i].p = 2e-12;
  const core::fault_universe u(std::move(atoms));
  const auto word_kind = [](const core::fault_universe& v) {
    const core::counter_sample_plan plan = core::make_counter_sample_plan(v);
    EXPECT_EQ(plan.words.size(), 1u);
    return plan.words.at(0).kind;
  };
  EXPECT_EQ(word_kind(u), core::counter_word_kind::wide53);
  EXPECT_EQ(word_kind(core::make_random_universe(64, 0.4, 0.7, 3)),
            core::counter_word_kind::paired32);
  // A single negligible-weight rare fault must NOT force the slow path.
  std::vector<core::fault_atom> mixed(50, core::fault_atom{0.1, 0.01});
  mixed[3].p = 1e-12;
  EXPECT_EQ(word_kind(core::fault_universe(std::move(mixed))),
            core::counter_word_kind::paired32);

  // The engine samples the p-sorted relayout: still one word, not uniform.
  const core::fault_universe pu = core::make_p_sorted_permutation(u).universe;
  EXPECT_EQ(word_kind(pu), core::counter_word_kind::wide53);
  EXPECT_EQ(core::make_counter_sample_plan(pu).draws_per_pair, 2 * u.size());
  EXPECT_EQ(core::make_counter_sample_plan(core::make_random_universe(50, 0.4, 0.7, 3))
                .draws_per_pair,
            u.size());
}

// --------------------------------------------------------------------------
// Binomial deviate (the demand campaigns' failure counts)
// --------------------------------------------------------------------------

TEST(BinomialDeviate, EdgesAndDeterminism) {
  stats::rng r(1);
  EXPECT_EQ(stats::binomial_deviate(r, 1000000, 0.0), 0u);
  EXPECT_EQ(stats::binomial_deviate(r, 1000000, 1.0), 1000000u);
  EXPECT_EQ(stats::binomial_deviate(r, 0, 0.5), 0u);
  stats::rng r1(77);
  stats::rng r2(77);
  EXPECT_EQ(stats::binomial_deviate(r1, 123456, 0.123),
            stats::binomial_deviate(r2, 123456, 0.123));
}

TEST(BinomialDeviate, MomentsMatchBinomialLaw) {
  stats::rng r(8);
  const std::uint64_t trials = 1'000'000;
  const double p = 0.0007;
  const int reps = 400;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto k = static_cast<double>(stats::binomial_deviate(r, trials, p));
    sum += k;
    sum_sq += k * k;
  }
  const double mean = sum / reps;
  const double var = sum_sq / reps - mean * mean;
  const double expect_mean = static_cast<double>(trials) * p;  // 700
  const double expect_var = expect_mean * (1.0 - p);
  // 5-sigma bands on the Monte-Carlo estimates.
  EXPECT_NEAR(mean, expect_mean, 5.0 * std::sqrt(expect_var / reps));
  EXPECT_NEAR(var, expect_var, 0.35 * expect_var);
}

TEST(BinomialDeviate, SmallTrialsPathMatchesLaw) {
  stats::rng r(13);
  const std::uint64_t trials = 50;  // below the splitting cutoff
  const double p = 0.2;
  const int reps = 30000;
  double sum = 0.0;
  for (int i = 0; i < reps; ++i) {
    sum += static_cast<double>(stats::binomial_deviate(r, trials, p));
  }
  const double mean = sum / reps;
  EXPECT_NEAR(mean, 10.0, 5.0 * std::sqrt(trials * p * (1.0 - p) / reps));
}

}  // namespace
