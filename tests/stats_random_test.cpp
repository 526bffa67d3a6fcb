// Unit tests for the RNG substrate: determinism, range contracts, stream
// independence and distributional sanity of the deviate generators.

#include "stats/random.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "stats/descriptive.hpp"

namespace {

using reldiv::stats::rng;

TEST(SplitMix64, IsDeterministicAndNonTrivial) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(reldiv::stats::splitmix64_next(s1), reldiv::stats::splitmix64_next(s2));
  EXPECT_NE(s1, 42u);  // state advanced
  const std::uint64_t a = reldiv::stats::splitmix64_next(s1);
  const std::uint64_t b = reldiv::stats::splitmix64_next(s1);
  EXPECT_NE(a, b);
}

TEST(Rng, SameSeedSameStream) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, StateExportImportContinuesTheStream) {
  rng a(2026);
  for (int i = 0; i < 37; ++i) a();
  a.jump();
  const rng::state_type s = a.state();
  rng b = rng::from_state(s);
  EXPECT_EQ(b.state(), s);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b()) << "draw " << i;
  EXPECT_EQ(a.state(), b.state());
  EXPECT_NE(a.state(), s);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(99);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRange) {
  rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 2.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 2.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  rng r(2024);
  reldiv::stats::running_moments m;
  for (int i = 0; i < 200000; ++i) m.add(r.uniform());
  EXPECT_NEAR(m.mean(), 0.5, 0.005);
  EXPECT_NEAR(m.variance(), 1.0 / 12.0, 0.002);
}

TEST(Rng, BelowRespectsBoundAndCoversRange) {
  rng r(31);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = r.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  rng r(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BernoulliFrequency) {
  rng r(17);
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  rng r(18);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, JumpedStreamsDoNotCollide) {
  rng a = rng::stream(555, 0);
  rng b = rng::stream(555, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, StreamIndexingIsStable) {
  rng a = rng::stream(9, 3);
  rng b = rng::stream(9, 3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
}

TEST(NormalDeviate, MomentsMatchStandardNormal) {
  rng r(77);
  reldiv::stats::running_moments m;
  for (int i = 0; i < 300000; ++i) m.add(reldiv::stats::normal_deviate(r));
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
  EXPECT_NEAR(m.skewness(), 0.0, 0.05);
  EXPECT_NEAR(m.excess_kurtosis(), 0.0, 0.1);
}

TEST(GammaDeviate, MomentsMatchShape) {
  rng r(88);
  for (const double shape : {0.5, 1.0, 2.5, 9.0}) {
    reldiv::stats::running_moments m;
    for (int i = 0; i < 100000; ++i) m.add(reldiv::stats::gamma_deviate(r, shape));
    EXPECT_NEAR(m.mean(), shape, 0.05 * shape + 0.02) << "shape=" << shape;
    EXPECT_NEAR(m.variance(), shape, 0.08 * shape + 0.05) << "shape=" << shape;
  }
}

TEST(GammaDeviate, RejectsNonPositiveShape) {
  rng r(1);
  EXPECT_THROW((void)reldiv::stats::gamma_deviate(r, 0.0), std::invalid_argument);
  EXPECT_THROW((void)reldiv::stats::gamma_deviate(r, -1.0), std::invalid_argument);
}

TEST(BetaDeviate, MomentsMatch) {
  rng r(4);
  const double a = 2.0;
  const double b = 5.0;
  reldiv::stats::running_moments m;
  for (int i = 0; i < 100000; ++i) m.add(reldiv::stats::beta_deviate(r, a, b));
  EXPECT_NEAR(m.mean(), a / (a + b), 0.005);
  EXPECT_NEAR(m.variance(), a * b / ((a + b) * (a + b) * (a + b + 1.0)), 0.002);
}

TEST(BetaDeviate, StaysInUnitInterval) {
  rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = reldiv::stats::beta_deviate(r, 0.5, 0.5);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
  }
}

TEST(BetaDeviate, RejectsBadParameters) {
  rng r(1);
  EXPECT_THROW((void)reldiv::stats::beta_deviate(r, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)reldiv::stats::beta_deviate(r, 1.0, -2.0), std::invalid_argument);
}

}  // namespace
