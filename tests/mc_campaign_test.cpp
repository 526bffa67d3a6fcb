// The unified deterministic campaign layer: run_jobs fan-out, the
// target-roster demand campaign, the two-channel pair campaign, the
// scenario grid, and the downstream migrations (kl empirical scoring,
// forced/functional scoring, bayes importance posterior, protection profile
// campaigns, grouped-universe sampling).  Pins the two contracts the README
// documents: thread count is never a results knob, and a campaign
// interrupted at a checkpoint boundary and resumed equals the uninterrupted
// run exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/moments.hpp"
#include "core/simd_sampler.hpp"
#include "demand/profile.hpp"
#include "demand/region.hpp"
#include "forced/forced_diversity.hpp"
#include "kl/experiment.hpp"
#include "bayes/inference.hpp"
#include "mc/campaign.hpp"
#include "mc/sampler.hpp"
#include "mc/scenario.hpp"
#include "protection/system.hpp"
#include "stats/counter_rng.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::mc;

const std::vector<unsigned> kThreadSweep = {1, 2, 7, 0};

// --------------------------------------------------------------------------
// Budget-scaled default shard layout
// --------------------------------------------------------------------------

TEST(DefaultShards, ScaleWithTheSampleBudget) {
  // Pure function of the budget: 1 shard for tiny runs, samples/64 in the
  // mid range, capped at the historical 256 ceiling from 16384 samples up.
  EXPECT_EQ(default_logical_shards(1), 1u);
  EXPECT_EQ(default_logical_shards(64), 1u);
  EXPECT_EQ(default_logical_shards(128), 2u);
  EXPECT_EQ(default_logical_shards(4096), 64u);
  EXPECT_EQ(default_logical_shards(16384), kDefaultLogicalShards);
  EXPECT_EQ(default_logical_shards(1'000'000'000), kDefaultLogicalShards);
  // make_shard_plan resolves 0 to the scaled default, and the chosen layout
  // is recorded in sharded results (part of the result identity).
  EXPECT_EQ(make_shard_plan(4096).shard_count, 64u);
  const auto u = core::make_random_universe(16, 0.4, 0.5, 3);
  experiment_config cfg;
  cfg.samples = 4096;
  EXPECT_EQ(run_experiment(u, cfg).shards, 64u);
  cfg.shards = 16;
  EXPECT_EQ(run_experiment(u, cfg).shards, 16u);
}

// --------------------------------------------------------------------------
// run_jobs primitive
// --------------------------------------------------------------------------

TEST(RunJobs, MergesInJobOrderAcrossThreadCounts) {
  for (const unsigned threads : kThreadSweep) {
    std::vector<std::size_t> order;
    run_jobs(
        3, 20, threads, [](std::size_t job) { return job * job; },
        [&order](std::size_t job, std::size_t&& result) {
          EXPECT_EQ(result, job * job);
          order.push_back(job);
        });
    ASSERT_EQ(order.size(), 17u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], 3 + i);
  }
}

TEST(RunJobs, FirstExceptionIsRethrown) {
  EXPECT_THROW(run_jobs(
                   0, 16, 4,
                   [](std::size_t job) -> int {
                     if (job >= 10) throw std::runtime_error("boom");
                     return 0;
                   },
                   [](std::size_t, int&&) {}),
               std::runtime_error);
  EXPECT_THROW(run_jobs(5, 2, 1, [](std::size_t) { return 0; },
                        [](std::size_t, int&&) {}),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Demand campaign: roster of targets, one stream per target
// --------------------------------------------------------------------------

TEST(DemandCampaign, MatchesThePerTargetSerialReference) {
  // The campaign's contract: target t's failure count is exactly one
  // binomial draw from the target's private stream
  // rng(target_stream_seed(seed, t)) — what a serial loop over per-target
  // streams would produce.  Pinned before the legacy serial scoring loops
  // were deleted.
  const std::vector<double> roster = {0.0, 1e-4, 0.01, 0.3, 0.999, 1.0};
  const std::uint64_t demands = 50'000;
  campaign_config cfg;
  cfg.seed = 99;
  const auto tally = run_demand_campaign(roster, demands, cfg);
  ASSERT_EQ(tally.failures.size(), roster.size());
  EXPECT_EQ(tally.demands, demands);
  for (std::size_t t = 0; t < roster.size(); ++t) {
    stats::rng reference(target_stream_seed(99, t));
    EXPECT_EQ(tally.failures[t], stats::binomial_deviate(reference, demands, roster[t]))
        << "target " << t;
  }
  EXPECT_EQ(tally.failures[0], 0u);
  EXPECT_EQ(tally.failures[5], demands);
  // Distinct targets get distinct stream seeds (splitmix64 hash).
  EXPECT_NE(target_stream_seed(99, 0), target_stream_seed(99, 1));
  EXPECT_NE(target_stream_seed(99, 0), target_stream_seed(100, 0));
}

TEST(DemandCampaign, BitIdenticalAcrossThreadCounts) {
  // The KL roster's size, which a campaign scores on the calling thread,
  // and one long enough to start several workers.
  for (const std::size_t targets : {std::size_t{378}, std::size_t{2100}}) {
    std::vector<double> roster(targets);
    stats::rng r(5);
    for (auto& pfd : roster) pfd = r.uniform() * 0.01;
    campaign_config cfg;
    cfg.seed = 7;
    cfg.threads = 1;
    const auto reference = run_demand_campaign(roster, 100'000, cfg);
    for (const unsigned threads : kThreadSweep) {
      cfg.threads = threads;
      const auto tally = run_demand_campaign(roster, 100'000, cfg);
      EXPECT_EQ(tally.failures, reference.failures) << targets << " targets";
    }
  }
}

TEST(DemandCampaign, WindowedRunsResumeExactly) {
  std::vector<double> roster(101);
  stats::rng r(6);
  for (auto& pfd : roster) pfd = r.uniform() * 0.05;
  campaign_config cfg;
  cfg.seed = 11;
  const auto uninterrupted = run_demand_campaign(roster, 20'000, cfg);

  // Process the roster in three windows with a merge of serialized partial
  // tallies at the end — the stitched result must be identical.
  auto window = [&](std::size_t lo, std::size_t hi) {
    demand_tally t;
    t.demands = 20'000;
    t.failures.assign(roster.size(), 0);
    run_demand_campaign_window(roster, 20'000, cfg, lo, hi, t);
    return t;
  };
  demand_tally stitched = window(0, 40);
  stitched.merge(window(40, 41));
  stitched.merge(window(41, roster.size()));
  EXPECT_EQ(stitched.failures, uninterrupted.failures);

  demand_tally bad;
  bad.demands = 1;
  bad.failures.assign(2, 0);
  EXPECT_THROW(stitched.merge(bad), std::invalid_argument);
  EXPECT_THROW((void)run_demand_campaign({}, 10, cfg), std::invalid_argument);
  EXPECT_THROW((void)run_demand_campaign(roster, 0, cfg), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Pair campaign + forced/functional migration
// --------------------------------------------------------------------------

TEST(PairCampaign, BitIdenticalAcrossThreadCounts) {
  const auto a = core::make_random_universe(60, 0.4, 0.6, 21);
  const auto b = core::fault_universe::from_arrays(
      core::make_random_universe(60, 0.2, 0.6, 21).p_values(), a.q_values());
  campaign_config cfg;
  cfg.seed = 3;
  cfg.threads = 1;
  const auto reference = run_pair_campaign(a, b, a.q_array(), 20'000, cfg);
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto res = run_pair_campaign(a, b, a.q_array(), 20'000, cfg);
    EXPECT_EQ(res.theta1.mean(), reference.theta1.mean());
    EXPECT_EQ(res.theta2.mean(), reference.theta2.mean());
    EXPECT_EQ(res.theta2.stddev(), reference.theta2.stddev());
    EXPECT_EQ(res.n1_positive, reference.n1_positive);
    EXPECT_EQ(res.n2_positive, reference.n2_positive);
    EXPECT_EQ(res.shards, reference.shards);
  }
}

TEST(ForcedScoring, TracksClosedFormsAndThinsByOverlap) {
  // Two channels over shared regions with different p vectors; overlap
  // omega thins the coincidence masses.  The campaign estimates must sit on
  // the closed forms within Monte-Carlo noise.
  const auto qa = core::make_random_universe(20, 0.5, 0.5, 31);
  const auto a = qa;
  const auto b = core::fault_universe::from_arrays(
      core::make_random_universe(20, 0.25, 0.5, 32).p_values(), qa.q_values());
  forced::forced_pair pair(a, b);
  const std::uint64_t samples = 300'000;
  const auto forced_res = forced::score_empirically(pair, samples, {.seed = 41});
  const auto forced_exact = pair.pair_moments();
  EXPECT_NEAR(forced_res.theta2.mean(), forced_exact.mean,
              5.0 * std::sqrt(forced_exact.variance / static_cast<double>(samples)) +
                  1e-5);
  EXPECT_NEAR(1.0 - forced_res.prob_n2_positive().value, pair.prob_no_common_fault(),
              0.01);

  std::vector<double> omega(a.size(), 0.5);
  omega[0] = 0.0;
  forced::functional_pair fpair(pair, omega);
  const auto func_res = forced::score_empirically(fpair, samples, {.seed = 42});
  const auto func_exact = fpair.pair_moments();
  EXPECT_NEAR(func_res.theta2.mean(), func_exact.mean,
              5.0 * std::sqrt(func_exact.variance / static_cast<double>(samples)) + 1e-5);
  EXPECT_NEAR(1.0 - func_res.prob_n2_positive().value,
              fpair.prob_no_common_failure_point(), 0.01);
  // Thinning can only reduce the pair PFD.
  EXPECT_LE(func_res.theta2.mean(), forced_res.theta2.mean());
}

/// A pair campaign's whole result state: samples, shards, the four counters,
/// then the θ1 and θ2 moment states, each count followed by m1..m4, min and
/// max as bit patterns.
std::vector<std::uint64_t> campaign_state_bits(const experiment_result& r) {
  std::vector<std::uint64_t> out = {r.samples,     r.shards,      r.n1_positive,
                                    r.n2_positive, r.n1_zero_pfd, r.n2_zero_pfd};
  for (const stats::running_moments_state& m : {r.theta1.state(), r.theta2.state()}) {
    out.push_back(m.count);
    for (const double x : {m.m1, m.m2, m.m3, m.m4, m.min, m.max}) {
      out.push_back(std::bit_cast<std::uint64_t>(x));
    }
  }
  return out;
}

std::string hex_list(const std::vector<std::uint64_t>& v) {
  std::string out;
  char buf[32];
  for (const std::uint64_t x : v) {
    std::snprintf(buf, sizeof buf, "0x%016llxULL, ", static_cast<unsigned long long>(x));
    out += buf;
  }
  return out;
}

TEST(PairCampaign, PinnedStateOfPlainFunctionalAndZeroOverlapScoring) {
  // run_pair_campaign's whole result state, pinned bit for bit: 13 shards
  // over an odd budget (two lane groups, the second partial, and nine shards
  // one pair longer than the rest), at 1 and 3 threads.  The channels share
  // 70 regions (a partial last mask word); channel B holds two certain
  // faults and channel A two impossible ones.  Three weightings: plain
  // forced scoring (θ2 sums q), functional scoring with zero and fractional
  // overlaps (one certain fault's overlap is 0), and coincidence weights all
  // zero, where most pairs share a fault yet none may count toward N2 > 0.
  const core::fault_universe base = core::make_random_universe(70, 0.5, 0.6, 81);
  std::vector<double> pa = base.p_values();
  std::vector<double> pb = core::make_random_universe(70, 0.3, 0.6, 82).p_values();
  pb[3] = pb[64] = 1.0;
  pa[10] = pa[66] = 0.0;
  const forced::forced_pair pair(core::fault_universe::from_arrays(pa, base.q_values()),
                                 core::fault_universe::from_arrays(pb, base.q_values()));
  std::vector<double> omega(70);
  for (std::size_t i = 0; i < omega.size(); ++i) {
    omega[i] = i % 3 == 0 ? 0.0 : static_cast<double>(i % 5 + 1) / 5.0;
  }
  const forced::functional_pair fpair(pair, omega);
  const std::vector<double> no_overlap(70, 0.0);
  const std::uint64_t samples = 20'003;
  const std::vector<std::uint64_t> want[] = {
      {0x0000000000004e23ULL, 0x000000000000000dULL, 0x0000000000004e23ULL,
       0x0000000000004cb6ULL, 0x0000000000000000ULL, 0x000000000000016dULL,
       0x0000000000004e23ULL, 0x3fc49b06427a7700ULL, 0x403e5a7f4c6ab805ULL,
       0x3fc0f6810fc09e35ULL, 0x3fc137ba3d85dac5ULL, 0x3f959a28cdc68419ULL,
       0x3fd499d07906c475ULL, 0x0000000000004e23ULL, 0x3fa045bca0654a04ULL,
       0x402250dce619c3d6ULL, 0x3fc48ac6126bf083ULL, 0x3f8e6cff86575cfbULL,
       0x0000000000000000ULL, 0x3fc2077e84499f1dULL},
      {0x0000000000004e23ULL, 0x000000000000000dULL, 0x0000000000004e23ULL,
       0x00000000000047dbULL, 0x0000000000000000ULL, 0x0000000000000648ULL,
       0x0000000000004e23ULL, 0x3fc49b06427a7700ULL, 0x403e5a7f4c6ab805ULL,
       0x3fc0f6810fc09e35ULL, 0x3fc137ba3d85dac5ULL, 0x3f959a28cdc68419ULL,
       0x3fd499d07906c475ULL, 0x0000000000004e23ULL, 0x3f8cad1b852edd58ULL,
       0x400b4ed369f52362ULL, 0x3fa8d0dfd54782b3ULL, 0x3f625fe43cf754e3ULL,
       0x0000000000000000ULL, 0x3fb47b690ce99513ULL},
      {0x0000000000004e23ULL, 0x000000000000000dULL, 0x0000000000004e23ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000004e23ULL,
       0x0000000000004e23ULL, 0x3fc49b06427a7700ULL, 0x403e5a7f4c6ab805ULL,
       0x3fc0f6810fc09e35ULL, 0x3fc137ba3d85dac5ULL, 0x3f959a28cdc68419ULL,
       0x3fd499d07906c475ULL, 0x0000000000004e23ULL, 0x0000000000000000ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
  };
  for (const unsigned threads : {1u, 3u}) {
    const campaign_config cfg{.seed = 2027, .threads = threads, .shards = 13};
    const experiment_result got[] = {
        forced::score_empirically(pair, samples, cfg),
        forced::score_empirically(fpair, samples, cfg),
        run_pair_campaign(pair.channel_a(), pair.channel_b(), no_overlap, samples, cfg),
    };
    for (std::size_t c = 0; c < 3; ++c) {
      const std::vector<std::uint64_t> bits = campaign_state_bits(got[c]);
      EXPECT_EQ(bits, want[c]) << "case " << c << " threads " << threads << ": got "
                               << hex_list(bits);
    }
    EXPECT_EQ(got[2].n2_positive, 0u);
    EXPECT_EQ(got[2].n2_zero_pfd, samples);
  }
}

TEST(PairCampaign, ZeroOverlapFaultsNeverCountAsCommonFailurePoints) {
  // One certain fault shared by both channels, but with coincidence weight
  // 0: pairs always share it, yet N2>0 must never fire and theta2 stays 0.
  const core::fault_universe u({{1.0, 0.1}});
  const std::vector<double> no_overlap = {0.0};
  const auto res = run_pair_campaign(u, u, no_overlap, 1000, {.seed = 1});
  EXPECT_EQ(res.n2_positive, 0u);
  EXPECT_EQ(res.theta2.mean(), 0.0);
  EXPECT_EQ(res.n1_positive, 1000u);
}

// --------------------------------------------------------------------------
// KL empirical scoring on the campaign
// --------------------------------------------------------------------------

TEST(KnightLevesonCampaign, EmpiricalScoresBitIdenticalAcrossThreadCounts) {
  const auto u = core::make_knight_leveson_like_universe(1);
  kl::kl_config cfg;
  cfg.demands = 100'000;
  cfg.threads = 1;
  const auto reference = kl::run_kl_experiment(u, cfg);
  ASSERT_EQ(reference.pair_pfd_hat.size(), 351u);
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto res = kl::run_kl_experiment(u, cfg);
    EXPECT_EQ(res.version_pfd, reference.version_pfd);
    EXPECT_EQ(res.pair_pfd, reference.pair_pfd);
    EXPECT_EQ(res.version_pfd_hat, reference.version_pfd_hat);
    EXPECT_EQ(res.pair_pfd_hat, reference.pair_pfd_hat);
  }
}

TEST(KnightLevesonCampaign, ScoresMatchThePerTargetCampaignContract) {
  // The kl module's empirical scores are exactly a demand campaign over the
  // (versions, then pairs) roster with the splitmix-derived master seed —
  // the migration must not have changed the scoring semantics.
  const auto u = core::make_knight_leveson_like_universe(2);
  kl::kl_config cfg;
  cfg.demands = 50'000;
  const auto res = kl::run_kl_experiment(u, cfg);
  std::vector<double> roster = res.version_pfd;
  roster.insert(roster.end(), res.pair_pfd.begin(), res.pair_pfd.end());
  campaign_config ccfg;
  std::uint64_t split = cfg.seed;
  ccfg.seed = stats::splitmix64_next(split);
  const auto rates = run_demand_campaign(roster, cfg.demands, ccfg).rates();
  for (std::size_t v = 0; v < res.version_pfd_hat.size(); ++v) {
    EXPECT_EQ(res.version_pfd_hat[v], rates[v]);
  }
  for (std::size_t p = 0; p < res.pair_pfd_hat.size(); ++p) {
    EXPECT_EQ(res.pair_pfd_hat[p], rates[res.version_pfd_hat.size() + p]);
  }
}

// --------------------------------------------------------------------------
// Bayes importance posterior on the campaign
// --------------------------------------------------------------------------

TEST(ImportancePosterior, BitIdenticalAcrossThreadCounts) {
  const auto u = core::make_random_universe(40, 0.3, 0.5, 51);
  const bayes::test_record evidence{5000, 1};
  const auto reference = bayes::importance_posterior(u, 2, evidence, 50'000, 9, 1);
  EXPECT_GT(reference.effective_sample_size, 0.0);
  EXPECT_EQ(reference.shards, default_logical_shards(50'000));
  for (const unsigned threads : kThreadSweep) {
    const auto res = bayes::importance_posterior(u, 2, evidence, 50'000, 9, threads);
    EXPECT_EQ(res.mean_pfd, reference.mean_pfd);
    EXPECT_EQ(res.prob_zero, reference.prob_zero);
    EXPECT_EQ(res.quantile99, reference.quantile99);
    EXPECT_EQ(res.effective_sample_size, reference.effective_sample_size);
  }
}

// --------------------------------------------------------------------------
// Protection profile campaign on the campaign layer
// --------------------------------------------------------------------------

TEST(ProtectionCampaign, ShardedProfileCampaignIsThreadInvariantAndAccurate) {
  using reldiv::demand::box;
  using reldiv::demand::make_box_region;
  protection::software_channel a({make_box_region(box({0.0, 0.0}, {0.1, 1.0}))});
  protection::software_channel b({make_box_region(box({0.05, 0.0}, {0.15, 1.0}))});
  protection::one_out_of_two sys(a, b);
  const demand::uniform_profile prof(box::unit(2));
  campaign_config cfg;
  cfg.seed = 4;
  cfg.threads = 1;
  const auto reference = protection::run_profile_campaign(prof, sys, 200'000, cfg);
  EXPECT_NEAR(reference.system_pfd(), 0.05, 0.003);
  EXPECT_NEAR(reference.channel_a_pfd(), 0.10, 0.004);
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto res = protection::run_profile_campaign(prof, sys, 200'000, cfg);
    EXPECT_EQ(res.demands, reference.demands);
    EXPECT_EQ(res.channel_a_failures, reference.channel_a_failures);
    EXPECT_EQ(res.channel_b_failures, reference.channel_b_failures);
    EXPECT_EQ(res.system_failures, reference.system_failures);
  }
}

// --------------------------------------------------------------------------
// Grouped-universe word-parallel sampling
// --------------------------------------------------------------------------

TEST(GroupedSampling, BlockPlanDetectsUniformWords) {
  const std::vector<core::fault_block> blocks = {
      {64, 0.5, 0.001}, {40, 0.25, 0.001}, {64, 0.3, 0.001}};
  const auto u = core::make_grouped_universe(blocks);
  ASSERT_EQ(u.size(), 168u);
  const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
  ASSERT_EQ(plan.words.size(), 3u);
  // p = 0.5: a single rng word per 64 bits.
  EXPECT_EQ(plan.words[0].kind, core::counter_word_kind::slice);
  EXPECT_EQ(plan.words[0].slice_cost, 1);
  // Word 1 spans the 0.25 run's tail and part of the 0.3 run: not uniform,
  // so one draw per fault, although its first fault's p slices cheaply.
  EXPECT_EQ(plan.words[1].kind, core::counter_word_kind::paired32);
  // Word 2 (the tail word) is all p = 0.3: uniform, but 0.3's threshold has
  // no cheap trailing-zero structure, so bit-slicing would cost more draws
  // than one per fault — not sliced.
  EXPECT_EQ(plan.words[2].kind, core::counter_word_kind::paired32);
  EXPECT_EQ(plan.words[1].draw_offset, 2u);
  EXPECT_EQ(plan.words[2].draw_offset, 2u + 64u);
  EXPECT_EQ(plan.draws_per_pair, 2u + 64u + 40u);

  // p = 0.3 has an expensive threshold: uniform but not sliced.
  const auto u3 = core::make_grouped_universe(
      std::vector<core::fault_block>{{64, 0.3, 0.001}, {64, 0.5, 0.001}});
  const core::counter_sample_plan plan3 = core::make_counter_sample_plan(u3);
  EXPECT_EQ(plan3.words[0].kind, core::counter_word_kind::paired32);
  EXPECT_EQ(plan3.words[1].kind, core::counter_word_kind::slice);
}

TEST(GroupedSampling, MarginalsMatchTheUniverse) {
  const std::vector<core::fault_block> blocks = {
      {64, 0.5, 0.001}, {64, 0.125, 0.001}, {32, 0.75, 0.001}};
  const auto u = core::make_grouped_universe(blocks);
  // Every word of the counter plan bit-slices (p = 0.5, 1/8 and 3/4 cost 1,
  // 3 and 2 draws per version).
  const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
  for (const core::counter_word_plan& w : plan.words) {
    ASSERT_EQ(w.kind, core::counter_word_kind::slice);
  }
  const std::uint64_t key = stats::counter_stream_key(77, 0);
  constexpr std::uint64_t kBatch = 1000;
  std::vector<core::fault_mask> a(kBatch);
  std::vector<core::fault_mask> b(kBatch);
  std::vector<std::uint64_t> hits(u.size(), 0);
  const std::uint64_t pairs = 30'000;
  for (std::uint64_t first = 0; first < pairs; first += kBatch) {
    core::sample_pair_counter_batch(plan, u, key, first, kBatch, a, b, core::simd_level::scalar);
    for (std::uint64_t j = 0; j < kBatch; ++j) {
      for (std::size_t i = 0; i < u.size(); ++i) {
        hits[i] += (a[j].test(i) ? 1 : 0) + (b[j].test(i) ? 1 : 0);
      }
    }
  }
  const auto n = static_cast<double>(2 * pairs);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double p = u[i].p;
    const double tol = 5.0 * std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(static_cast<double>(hits[i]) / n, p, tol) << "fault " << i;
  }
}

TEST(GroupedSampling, FastEngineAgreesWithExactEngineStatistically) {
  const std::vector<core::fault_block> blocks = {
      {64, 0.5, 0.002}, {64, 0.25, 0.002}, {40, 0.3, 0.002}};
  const auto u = core::make_grouped_universe(blocks);
  experiment_config cfg;
  cfg.samples = 50'000;
  cfg.seed = 12;
  cfg.engine = sampling_engine::fast_simd;  // bit-slices the 0.5 and 0.25 words
  const auto simd = run_experiment(u, cfg);
  cfg.engine = sampling_engine::exact;
  const auto exact = run_experiment(u, cfg);
  const double sigma =
      exact.theta1.stddev() / std::sqrt(static_cast<double>(cfg.samples));
  EXPECT_NEAR(simd.theta1.mean(), exact.theta1.mean(), 5.0 * sigma + 1e-6);
  EXPECT_NEAR(simd.mean_theta2().value, exact.mean_theta2().value,
              5.0 * exact.theta2.stddev() / std::sqrt(static_cast<double>(cfg.samples)) +
                  1e-6);
  EXPECT_NEAR(simd.prob_n1_positive().value, exact.prob_n1_positive().value, 0.02);

  // And the grouped fast-simd path is thread-invariant like every engine.
  cfg.engine = sampling_engine::fast_simd;
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto res = run_experiment(u, cfg);
    EXPECT_EQ(res.theta1.mean(), simd.theta1.mean());
    EXPECT_EQ(res.n2_positive, simd.n2_positive);
  }
}

// --------------------------------------------------------------------------
// Scenario grid
// --------------------------------------------------------------------------

scenario_axes small_axes() {
  scenario_axes axes;
  axes.universes.emplace_back("rand20", core::make_random_universe(20, 0.3, 0.5, 61));
  axes.universes.emplace_back("homog", core::make_homogeneous_universe(32, 0.2, 0.01));
  axes.correlations = {0.0, 0.3};
  axes.overlaps = {1.0, 0.5};
  axes.aliasing = {1, 2};
  axes.budgets = {3000};
  return axes;
}

TEST(ScenarioGrid, EnumeratesRowMajorAndValidates) {
  const auto axes = small_axes();
  const auto cells = enumerate_cells(axes);
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells[0].universe, "rand20");
  EXPECT_EQ(cells[0].rho, 0.0);
  EXPECT_EQ(cells[1].aliasing, 2u);   // innermost-but-one axis moves first
  EXPECT_EQ(cells[8].universe, "homog");

  scenario_axes bad = axes;
  bad.budgets = {};
  EXPECT_THROW((void)enumerate_cells(bad), std::invalid_argument);
  bad = axes;
  bad.overlaps = {1.5};
  EXPECT_THROW((void)enumerate_cells(bad), std::invalid_argument);
  bad = axes;
  bad.aliasing = {0};
  EXPECT_THROW((void)enumerate_cells(bad), std::invalid_argument);
}

TEST(ScenarioGrid, BitIdenticalAcrossThreadCounts) {
  const auto axes = small_axes();
  scenario_config cfg;
  cfg.seed = 71;
  cfg.threads = 1;
  const auto reference = run_scenario_grid(axes, cfg);
  ASSERT_EQ(reference.cells.size(), 16u);
  for (const unsigned threads : kThreadSweep) {
    cfg.threads = threads;
    const auto grid = run_scenario_grid(axes, cfg);
    EXPECT_EQ(grid.to_csv(), reference.to_csv());
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      EXPECT_EQ(grid.cells[c].mean_theta2, reference.cells[c].mean_theta2) << c;
      EXPECT_EQ(grid.cells[c].state.n2_positive, reference.cells[c].state.n2_positive)
          << c;
    }
  }
}

TEST(ScenarioGrid, InterruptedAtACellBoundaryResumesExactly) {
  const auto axes = small_axes();
  scenario_config cfg;
  cfg.seed = 72;
  const auto uninterrupted = run_scenario_grid(axes, cfg);

  grid_result resumed;
  run_scenario_cells(axes, cfg, 0, 5, resumed);
  ASSERT_EQ(resumed.cells.size(), 5u);
  // "Serialize" the prefix: rebuild the partial result from the plain
  // accumulator_state checkpoints, then resume the remaining cells.
  grid_result restored;
  restored.cells = resumed.cells;
  for (auto& cell : restored.cells) {
    const auto acc = experiment_accumulator::from_state(cell.state);
    cell.state = acc.state();  // round-trip through the wire format
  }
  run_scenario_cells(axes, cfg, 5, enumerate_cells(axes).size(), restored);
  EXPECT_EQ(restored.to_csv(), uninterrupted.to_csv());
  EXPECT_EQ(restored.to_json(), uninterrupted.to_json());
  for (std::size_t c = 0; c < restored.cells.size(); ++c) {
    EXPECT_EQ(restored.cells[c].state.theta2.count,
              uninterrupted.cells[c].state.theta2.count);
    EXPECT_EQ(restored.cells[c].state.n1_positive,
              uninterrupted.cells[c].state.n1_positive);
  }

  grid_result wrong_prefix;
  EXPECT_THROW(run_scenario_cells(axes, cfg, 3, 5, wrong_prefix), std::invalid_argument);
}

TEST(ScenarioGrid, CellSemanticsMatchTheModel) {
  // omega = 0 cells never coincide; rho shifts P(N2>0) but not the means
  // (marginal-preserving mixture); aliasing > 1 records a lower naive pmax.
  scenario_axes axes;
  axes.universes.emplace_back("rand20", core::make_random_universe(20, 0.3, 0.5, 61));
  axes.correlations = {0.0};
  axes.overlaps = {1.0, 0.0};
  axes.aliasing = {1, 4};
  axes.budgets = {20'000};
  const auto grid = run_scenario_grid(axes, {.seed = 73});
  ASSERT_EQ(grid.cells.size(), 4u);
  const auto& full = grid.cells[0];     // omega 1, aliasing 1
  const auto& aliased = grid.cells[1];  // omega 1, aliasing 4
  const auto& none = grid.cells[2];     // omega 0, aliasing 1
  EXPECT_GT(full.mean_theta2, 0.0);
  EXPECT_EQ(none.mean_theta2, 0.0);
  EXPECT_EQ(none.prob_n2_positive, 0.0);
  EXPECT_GT(none.mean_theta1, 0.0);
  EXPECT_LT(aliased.p_max_naive, aliased.p_max_true);
  EXPECT_EQ(full.p_max_naive, full.p_max_true);
  // The aliased cell runs the region-level effective universe, so its
  // moments agree with the un-aliased cell within Monte-Carlo noise.
  EXPECT_NEAR(aliased.mean_theta1, full.mean_theta1, 0.05 * full.mean_theta1 + 1e-3);

  const auto csv = grid.to_csv();
  EXPECT_NE(csv.find("universe,rho,omega,aliasing"), std::string::npos);
  EXPECT_NE(csv.find("rand20"), std::string::npos);
  const auto json = grid.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"cells\":["), std::string::npos);
}

}  // namespace
