// The fast-simd engine's correctness anchors:
//   - counter rng identity with the splitmix64 stream it compresses;
//   - the counter stream's reference, the scalar level of its draw, pinned
//     by value (digests of the fuzz corpus's words);
//   - the randomized equivalence fuzz pinning the counter draw (scalar, AVX2
//     and AVX-512, each when the host has it) decision-for-decision against
//     that reference, one pair at a time, through the batch API, which lays
//     one stream across the lanes;
//   - the counter pair step (core::counter_pair_step_lanes) against that
//     reference and mc::experiment_accumulator::add, field by field and bit
//     for bit, at every level, on every counter word kind, every live-lane
//     count and the schedule of shards one pair longer than the rest;
//   - universe permutation round-trips (indices, masks, q values) and the
//     regression that a permuted heterogeneous universe becomes mostly
//     bit-sliceable (the counter plan follows the remapped layout);
//   - bit-identity of run_experiment across thread counts AND SIMD dispatch
//     levels, shard-window splits, kept samples against the reference shard
//     loop, and the manifest wire codec;
//   - the per-lane record (core::record_pair_lane) against
//     mc::experiment_accumulator::add of the sparse ascending θ sums
//     (running_moments::add underneath), for every votes-of-versions shape,
//     and with a θ2 weight span against the pair campaign's former
//     weighted intersection sum;
//   - the xoshiro pair step against versions drawn by
//     mc::common_cause_mixture::sample_mask (or, on the `exact` engine's
//     tables, mc::sample_version_mask) on a scalar copy of every lane's
//     stream and recorded by experiment_accumulator::add, at every level,
//     every live-lane count and adjudication shape, including faults whose
//     stressed threshold saturates, channels whose live lanes all drew one
//     side of the stress draw, and `exact` experiments with kept samples;
//   - for every step, the streams, accumulators and θ outputs of spare lanes
//     (random bits and sentinels) are never written.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault_mask.hpp"
#include "core/fault_universe.hpp"
#include "core/generators.hpp"
#include "core/simd_sampler.hpp"
#include "core/simd_sampler.inl.hpp"
#include "mc/correlated.hpp"
#include "mc/experiment.hpp"
#include "mc/run_dir.hpp"
#include "mc/sampler.hpp"
#include "mc/spec.hpp"
#include "stats/counter_rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/random.hpp"
#include "stats/wire.hpp"

namespace {

using namespace reldiv;

/// Every dispatch level this host can run, scalar first: the kernels of each
/// level keep their own direct test even when a higher level is detected.
std::vector<core::simd_level> levels_up_to_detected() {
  std::vector<core::simd_level> levels;
  for (const auto level :
       {core::simd_level::scalar, core::simd_level::avx2, core::simd_level::avx512}) {
    if (level <= core::detected_simd_level()) levels.push_back(level);
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Counter rng
// ---------------------------------------------------------------------------

TEST(CounterRng, DrawMatchesSplitmixWalk) {
  // counter_draw(key, c) must equal the (c+1)-th output of a splitmix64
  // stream seeded at `key` — the counter generator IS that stream with
  // random access.
  const std::uint64_t key = 0x0123456789abcdefULL;
  std::uint64_t state = key;
  for (std::uint64_t c = 0; c < 100; ++c) {
    const std::uint64_t expected = stats::splitmix64_next(state);
    EXPECT_EQ(stats::counter_draw(key, c), expected) << "counter " << c;
  }
}

TEST(CounterRng, ClassWalksTheStream) {
  stats::counter_rng r(42, 0);
  for (std::uint64_t c = 0; c < 16; ++c) {
    EXPECT_EQ(r(), stats::counter_draw(42, c));
  }
  r.seek(5);
  EXPECT_EQ(r(), stats::counter_draw(42, 5));
}

TEST(CounterRng, StreamKeysAreDistinctAcrossShardsAndSeeds) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t seed : {1ULL, 2ULL, 0xdeadbeefULL}) {
    for (unsigned shard = 0; shard < 64; ++shard) {
      keys.push_back(stats::counter_stream_key(seed, shard));
    }
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "counter stream keys collided";
}

// ---------------------------------------------------------------------------
// Universe permutation
// ---------------------------------------------------------------------------

TEST(UniversePermutation, RoundTripsIndicesMasksAndValues) {
  const auto u = core::make_random_universe(157, 0.3, 0.4, 99);
  const auto perm = core::make_p_sorted_permutation(u);
  ASSERT_EQ(perm.size(), u.size());
  ASSERT_EQ(perm.universe.size(), u.size());

  // Permuted p values ascend and the atoms are a reordering of the original.
  for (std::size_t i = 0; i + 1 < perm.universe.size(); ++i) {
    EXPECT_LE(perm.universe[i].p, perm.universe[i + 1].p);
  }
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(perm.universe.atoms()[i], u.atoms()[perm.index_to_original(i)]);
    EXPECT_EQ(perm.index_to_permuted(perm.index_to_original(i)), i);
  }

  // Mask round-trip: a pseudo-random mask survives to_permuted ∘ to_original
  // and the permuted mask has bit to_permuted[i] == original bit i.
  core::fault_mask m(u.size());
  stats::rng r(7);
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (r.below(3) == 0) m.set(i);
  }
  const core::fault_mask pm = perm.mask_to_permuted(m);
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(pm.test(perm.index_to_permuted(i)), m.test(i));
  }
  const core::fault_mask back = perm.mask_to_original(pm);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(back.test(i), m.test(i));
  }

  // q values round-trip and line up with the permuted universe's q array.
  const auto pq = perm.values_to_permuted(u.q_values());
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(pq[i], perm.universe[i].q);
  }
  const auto back_q = perm.values_to_original(pq);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(back_q[i], u[i].q);
  }
}

TEST(UniversePermutation, IdentityOnSortedUniverse) {
  const auto u = core::make_homogeneous_universe(70, 0.25, 0.001);
  const auto perm = core::make_p_sorted_permutation(u);
  EXPECT_TRUE(perm.identity);
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(perm.index_to_original(i), i);
  }
}

/// Builds a heterogeneous universe from a small p palette, scattered so no
/// 64-fault word is uniform: the worst case for the word-parallel samplers,
/// and exactly what the p-sorted relayout is for.
core::fault_universe make_scattered_palette_universe(std::size_t n,
                                                     std::uint64_t seed) {
  std::vector<core::fault_atom> atoms;
  atoms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // 8 palette values k/16, k in 1..8: every threshold has >= 49 trailing
    // zero bits, so a uniform word costs at most 5 slice draws.
    const double p = static_cast<double>(i % 8 + 1) / 16.0;
    atoms.push_back({p, 0.5 / static_cast<double>(n)});
  }
  // Deterministic Fisher-Yates scatter.
  stats::rng r(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(atoms[i - 1], atoms[r.below(i)]);
  }
  return core::fault_universe(std::move(atoms));
}

/// Words of a counter plan that draw no per-fault compares: zero, one and
/// slice words.
std::size_t sliced_words(const core::counter_sample_plan& plan) {
  return static_cast<std::size_t>(
      std::count_if(plan.words.begin(), plan.words.end(), [](const core::counter_word_plan& w) {
        return w.kind != core::counter_word_kind::paired32 &&
               w.kind != core::counter_word_kind::wide53;
      }));
}

TEST(UniversePermutation, PermutedHeterogeneousUniverseIsMostlySliceable) {
  // The counter plan of the permuted universe must follow the REMAPPED p
  // layout, not the original's.
  const auto u = make_scattered_palette_universe(1024, 11);
  EXPECT_EQ(sliced_words(core::make_counter_sample_plan(u)), 0u)
      << "scatter failed: universe already uniform";

  const auto perm = core::make_p_sorted_permutation(u);
  EXPECT_FALSE(perm.identity);
  const core::counter_sample_plan plan = core::make_counter_sample_plan(perm.universe);
  // 1024 faults / 8 palette values = 2 whole words per value; at most one
  // boundary word per value can stay mixed.
  EXPECT_GE(sliced_words(plan), plan.words.size() - 8) << "p-sorted relayout did not make "
                                                          "the universe word-parallel";
}

// ---------------------------------------------------------------------------
// The counter stream: its scalar reference pinned by value, and the vector
// levels against it
// ---------------------------------------------------------------------------

/// Pair `pair` of counter stream `key` over u as the stream's reference, the
/// scalar level, draws it: lane 0 of a one-pair batch.
void draw_reference_pair(const core::counter_sample_plan& plan, const core::fault_universe& u,
                         std::uint64_t key, std::uint64_t pair, core::fault_mask& a,
                         core::fault_mask& b) {
  core::sample_pair_counter_batch(plan, u, key, pair, 1, std::span<core::fault_mask>(&a, 1),
                                  std::span<core::fault_mask>(&b, 1), core::simd_level::scalar);
}

void expect_masks_equal(const core::fault_mask& got, const core::fault_mask& want,
                        const std::string& what) {
  ASSERT_EQ(got.bit_size(), want.bit_size()) << what;
  for (std::size_t w = 0; w < want.word_count(); ++w) {
    ASSERT_EQ(got.words()[w], want.words()[w])
        << what << ": word " << w << " differs";
  }
}

/// One fuzz case at the given dispatch level: every pair of the batch window
/// must match the reference drawn one pair at a time, across a batch
/// boundary, at a nonzero first pair and in a window of fewer pairs than
/// lanes.
void run_equivalence_case(const core::fault_universe& u, std::uint64_t key,
                          core::simd_level level, const std::string& what) {
  const auto plan = core::make_counter_sample_plan(u);

  constexpr std::size_t kPairs = 12;  // spans a batch boundary at 8
  std::vector<core::fault_mask> a(kPairs), b(kPairs);
  core::sample_pair_counter_batch(plan, u, key, /*first_pair=*/0, kPairs,
                                  std::span<core::fault_mask>(a),
                                  std::span<core::fault_mask>(b), level);
  core::fault_mask ra, rb;
  for (std::size_t s = 0; s < kPairs; ++s) {
    draw_reference_pair(plan, u, key, s, ra, rb);
    expect_masks_equal(a[s], ra, what + " pair " + std::to_string(s) + " (a)");
    expect_masks_equal(b[s], rb, what + " pair " + std::to_string(s) + " (b)");
  }
  // Nonzero first_pair must land on the same stream positions.
  std::vector<core::fault_mask> sa(1), sb(1);
  core::sample_pair_counter_batch(plan, u, key, /*first_pair=*/7, 1, sa, sb, level);
  expect_masks_equal(sa[0], a[7], what + " seek (a)");
  expect_masks_equal(sb[0], b[7], what + " seek (b)");
}

/// 2011 faults rarer than the 2^-32 grid (p = 1e-12) with three p = 0.1
/// faults among them, the last in the partial last word: the aggregate grid
/// inflation sends every mixed word to the wide53 kernel, and the p = 0.1
/// faults give its compares decisions that go both ways (the tiny-p corpus
/// below reaches wide53 too, but its draws essentially never hit).
core::fault_universe make_off_grid_universe(std::uint64_t seed) {
  std::vector<core::fault_atom> atoms(2011, core::fault_atom{1e-12, 1e-4});
  for (const std::uint64_t i : {seed % 64, 64 + (7 * seed) % 64, 1984 + seed % 27}) {
    atoms[i].p = 0.1;
  }
  return core::fault_universe(std::move(atoms));
}

/// 100 faults with random p in (0, 0.9), so both words (the second partial)
/// are mixed and on the 2^-32 grid, i.e. paired32, each holding a p = 0 atom,
/// a p = 1 atom and a p = 1 - 2^-33 atom.  The last two have the 32-bit
/// threshold 2^32, which no 32-bit operand holds (the degenerate corpus
/// below puts p = 0 and p = 1 only in whole zero and one words).
core::fault_universe make_saturated_universe(std::uint64_t seed) {
  stats::rng r(seed);
  std::vector<core::fault_atom> atoms;
  for (std::size_t i = 0; i < 100; ++i) atoms.push_back({0.9 * r.uniform(), 0.005});
  for (const std::size_t lo : {std::size_t{0}, std::size_t{64}}) {
    const std::size_t occupancy = lo == 0 ? 64 : 36;
    atoms[lo + seed % occupancy].p = 0.0;
    atoms[lo + (seed + 7) % occupancy].p = 1.0;
    atoms[lo + (seed + 13) % occupancy].p = 1.0 - 0x1p-33;
  }
  return core::fault_universe(std::move(atoms));
}

/// Seed `seed`'s universes of the fuzz corpus, named: random heterogeneous
/// universes covering every counter word kind (slice, paired32, wide53,
/// zero, one, saturated paired32) and partial last words.
std::vector<std::pair<std::string, core::fault_universe>> fuzz_universes(std::uint64_t seed) {
  const std::string at = "/" + std::to_string(seed);
  std::vector<std::pair<std::string, core::fault_universe>> out;
  // Random p in (0, p_max): exercises paired32 words (and wide53 when p_max
  // is tiny enough to break the 2^-32 grid).
  out.emplace_back("random" + at, core::make_random_universe(64 + 13 * seed, 0.4, 0.3, seed));
  out.emplace_back("tiny-p" + at, core::make_random_universe(96, 1e-10, 0.3, seed));
  // Palette universes: mixed words before sorting, sliceable after.
  const auto scattered = make_scattered_palette_universe(128 + 8 * seed, seed);
  out.emplace_back("scattered" + at, scattered);
  out.emplace_back("sorted" + at, core::make_p_sorted_permutation(scattered).universe);
  // Degenerate thresholds (p = 0 and p = 1 words) + uneven tail.
  const std::vector<core::fault_block> blocks = {
      {64, 0.0, 0.001}, {64, 1.0, 0.001}, {64, 0.5, 0.001}, {37, 0.25, 0.001}};
  out.emplace_back("degenerate" + at, core::make_grouped_universe(blocks));
  out.emplace_back("off-grid" + at, make_off_grid_universe(seed));
  out.emplace_back("saturated" + at, make_saturated_universe(seed));
  return out;
}

/// The ~140-universe fuzz corpus × keys.
void run_equivalence_fuzz(core::simd_level level) {
  const std::string lvl = core::simd_level_name(level);
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::uint64_t key = stats::counter_stream_key(seed, 3);
    for (const auto& [name, u] : fuzz_universes(seed)) {
      run_equivalence_case(u, key, level, lvl + " " + name);
      ++cases;
    }
  }
  EXPECT_GE(cases, 140);
}

TEST(CounterStream, PinnedDigestsOfTheFuzzCorpus) {
  // The scalar level is the counter stream's reference, so the stream is
  // pinned by value: per corpus family, stats::fnv1a64 over the a and b
  // words of pairs 0-11 of stream counter_stream_key(seed, 3), every seed
  // in turn, pair by pair, a's words before b's.  The digests were recorded
  // while a second scalar draw still checked the scalar level draw for draw;
  // a word kind, draw offset, threshold or slice step that moves changes
  // one of them.
  constexpr std::array<std::pair<std::string_view, std::uint64_t>, 7> kPinned = {{
      {"random", 0x0a78bdeb7947f5a5ULL},
      {"tiny-p", 0x282e145144b17b25ULL},
      {"scattered", 0x53680a22c6c4f45aULL},
      {"sorted", 0x64631a7d7f12995aULL},
      {"degenerate", 0xaa913006d9058c8dULL},
      {"off-grid", 0xd89ce8b8c00ce620ULL},
      {"saturated", 0xe12f980ec894b2c6ULL},
  }};
  constexpr std::size_t kPairs = 12;
  std::array<stats::wire_writer, kPinned.size()> words;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto universes = fuzz_universes(seed);
    ASSERT_EQ(universes.size(), kPinned.size());
    for (std::size_t f = 0; f < kPinned.size(); ++f) {
      const auto& [name, u] = universes[f];
      ASSERT_EQ(name, std::string(kPinned[f].first) + "/" + std::to_string(seed));
      std::vector<core::fault_mask> a(kPairs), b(kPairs);
      core::sample_pair_counter_batch(core::make_counter_sample_plan(u), u,
                                      stats::counter_stream_key(seed, 3), 0, kPairs, a, b,
                                      core::simd_level::scalar);
      for (std::size_t s = 0; s < kPairs; ++s) {
        for (std::size_t w = 0; w < a[s].word_count(); ++w) words[f].put_u64(a[s].words()[w]);
        for (std::size_t w = 0; w < b[s].word_count(); ++w) words[f].put_u64(b[s].words()[w]);
      }
    }
  }
  for (std::size_t f = 0; f < kPinned.size(); ++f) {
    EXPECT_EQ(stats::fnv1a64(words[f].buffer()), kPinned[f].second)
        << kPinned[f].first << std::hex << " digest 0x" << stats::fnv1a64(words[f].buffer());
  }
}

TEST(SimdEquivalenceFuzz, CorpusCoversEveryWordKind) {
  // The off-grid universe must send every word to wide53 (its uniform
  // p = 1e-12 words cost 49 slice draws, and grid safety is a property of
  // the whole universe) and the saturated one every word to paired32 with
  // two saturated faults; with the rest, the corpus holds every word kind
  // and partial last words.
  std::array<int, 5> kinds{};
  int partial = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const auto& [name, u] : fuzz_universes(seed)) {
      const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
      for (const core::counter_word_plan& w : plan.words) ++kinds[static_cast<int>(w.kind)];
      partial += u.size() % 64 != 0 ? 1 : 0;
      if (name.starts_with("off-grid")) {
        for (const core::counter_word_plan& w : plan.words) {
          EXPECT_EQ(w.kind, core::counter_word_kind::wide53) << name;
        }
      }
      if (name.starts_with("saturated")) {
        for (const core::counter_word_plan& w : plan.words) {
          EXPECT_EQ(w.kind, core::counter_word_kind::paired32) << name;
          EXPECT_EQ(std::popcount(w.saturated), 2) << name;
        }
      }
    }
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) EXPECT_GT(kinds[k], 0) << "word kind " << k;
  EXPECT_GT(partial, 0);
}

TEST(SimdEquivalenceFuzz, ScalarFallbackMatchesReference) {
  run_equivalence_fuzz(core::simd_level::scalar);
}

TEST(SimdEquivalenceFuzz, Avx2MatchesReference) {
  if (core::detected_simd_level() < core::simd_level::avx2) {
    GTEST_SKIP() << "host has no AVX2";
  }
  run_equivalence_fuzz(core::simd_level::avx2);
}

TEST(SimdEquivalenceFuzz, Avx512MatchesReference) {
  if (core::detected_simd_level() < core::simd_level::avx512) {
    GTEST_SKIP() << "host has no AVX-512";
  }
  run_equivalence_fuzz(core::simd_level::avx512);
}

TEST(SimdEquivalenceFuzz, EmptyAndSingleFaultUniverses) {
  for (const auto level : levels_up_to_detected()) {
    run_equivalence_case(core::fault_universe(), 1, level, "empty");
    run_equivalence_case(core::make_homogeneous_universe(1, 0.5, 0.1), 1, level,
                         "single");
  }
}

// ---------------------------------------------------------------------------
// The xoshiro pair step's universes and threshold tables
// ---------------------------------------------------------------------------

/// n faults with random p in (0, 0.4) plus the degenerate atoms: p = 0 at
/// index 0, p = 1 at index n / 2 and p = 1e-13 (< 2^-40) at index n - 1, so
/// every universe size puts them in different words.
core::fault_universe make_lane_test_universe(std::size_t n, std::uint64_t seed) {
  stats::rng r(seed);
  std::vector<core::fault_atom> atoms;
  for (std::size_t i = 0; i < n; ++i) {
    atoms.push_back({0.4 * r.uniform(), 0.5 / static_cast<double>(n)});
  }
  atoms[n - 1].p = 1e-13;
  atoms[n / 2].p = 1.0;
  atoms[0].p = 0.0;
  return core::fault_universe(std::move(atoms));
}

/// n > 128 faults with random p in (0, 0.4), except the faults whose
/// stressed threshold saturates at stress 1.8 (p >= 1/1.8) while their
/// relaxed one does not (p < 1): at word positions 0 and 63, at n - 2 (in
/// the partial last word when n % 64 is neither 0 nor 1), and every fault of
/// word 1, which also holds p = 1 faults at its even positions, saturated
/// in both tables.
core::fault_universe make_saturating_lane_universe(std::size_t n, std::uint64_t seed) {
  stats::rng r(seed);
  std::vector<core::fault_atom> atoms;
  for (std::size_t i = 0; i < n; ++i) {
    atoms.push_back({0.4 * r.uniform(), 0.4 / static_cast<double>(n)});
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{63}, n - 2}) {
    atoms[i].p = 0.56 + 0.4 * r.uniform();
  }
  for (std::size_t i = 64; i < 128; ++i) atoms[i].p = i % 2 == 0 ? 1.0 : 0.56 + 0.4 * r.uniform();
  return core::fault_universe(std::move(atoms));
}

TEST(MixtureLaneTables, ShiftedThresholdsAndSaturatedWords) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << core::kBernoulliBits;
  std::vector<std::uint64_t> stressed(70, kOne / 3);
  std::vector<std::uint64_t> relaxed(70, 5);
  stressed[0] = stressed[63] = stressed[69] = kOne;
  relaxed[64] = kOne;
  relaxed[1] = 0;
  stressed[2] = kOne - 1;
  const core::xoshiro_lane_tables t = core::make_mixture_lane_tables(17, stressed, relaxed);
  EXPECT_TRUE(t.stress_draw);
  EXPECT_EQ(t.stress, 17u);
  EXPECT_EQ(t.stressed, stressed);
  EXPECT_EQ(t.relaxed, relaxed);
  ASSERT_EQ(t.stressed_shifted.size(), 70u);
  ASSERT_EQ(t.relaxed_shifted.size(), 70u);
  for (std::size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(t.stressed_shifted[i], stressed[i] == kOne ? 0 : stressed[i] << 11) << i;
    EXPECT_EQ(t.relaxed_shifted[i], relaxed[i] == kOne ? 0 : relaxed[i] << 11) << i;
  }
  EXPECT_EQ(t.stressed_always,
            (std::vector<std::uint64_t>{1 | std::uint64_t{1} << 63, std::uint64_t{1} << 5}));
  EXPECT_EQ(t.relaxed_always, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_THROW((void)core::make_mixture_lane_tables(0, std::vector<std::uint64_t>(5, 1),
                                                    std::vector<std::uint64_t>(4, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)core::make_mixture_lane_tables(0, std::vector<std::uint64_t>(2, kOne + 1),
                                                    std::vector<std::uint64_t>(2, 1)),
               std::invalid_argument);
  // A universe's own thresholds: no stress draw, and no stressed tables.
  const core::xoshiro_lane_tables plain = core::make_threshold_lane_tables(relaxed);
  EXPECT_FALSE(plain.stress_draw);
  EXPECT_EQ(plain.relaxed, relaxed);
  EXPECT_EQ(plain.relaxed_shifted, t.relaxed_shifted);
  EXPECT_EQ(plain.relaxed_always, t.relaxed_always);
  EXPECT_TRUE(plain.stressed.empty());
  EXPECT_TRUE(plain.stressed_shifted.empty());
  EXPECT_TRUE(plain.stressed_always.empty());
  EXPECT_THROW((void)core::make_threshold_lane_tables(std::vector<std::uint64_t>(3, kOne + 1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The per-lane record vs running_moments::add and the sparse sums
// ---------------------------------------------------------------------------

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool moments_bits_equal(const stats::running_moments_state& a,
                        const stats::running_moments_state& b) {
  return a.count == b.count && bits_equal(a.m1, b.m1) && bits_equal(a.m2, b.m2) &&
         bits_equal(a.m3, b.m3) && bits_equal(a.m4, b.m4) && bits_equal(a.min, b.min) &&
         bits_equal(a.max, b.max);
}

/// Lane l of `got` against an experiment_accumulator's state, field by field
/// and bit for bit.
void expect_lane_state(const core::accumulator_lanes& got, unsigned l,
                       const mc::accumulator_state& want, const std::string& what) {
  EXPECT_EQ(got.samples[l], want.samples) << what;
  EXPECT_TRUE(moments_bits_equal(got.theta1_state(l), want.theta1)) << what << " theta1";
  EXPECT_TRUE(moments_bits_equal(got.theta2_state(l), want.theta2)) << what << " theta2";
  EXPECT_EQ(got.n1_positive[l], want.n1_positive) << what;
  EXPECT_EQ(got.n2_positive[l], want.n2_positive) << what;
  EXPECT_EQ(got.n1_zero_pfd[l], want.n1_zero_pfd) << what;
  EXPECT_EQ(got.n2_zero_pfd[l], want.n2_zero_pfd) << what;
}

/// The bits of every field of lane l, in a fixed order.
std::vector<std::uint64_t> lane_bits(const core::accumulator_lanes& a, unsigned l) {
  std::vector<std::uint64_t> bits = {a.samples[l], a.n1_positive[l], a.n2_positive[l],
                                     a.n1_zero_pfd[l], a.n2_zero_pfd[l]};
  for (const core::moments_lanes* m : {&a.theta1, &a.theta2}) {
    for (const auto* f : {&m->m1, &m->m2, &m->m3, &m->m4, &m->min, &m->max}) {
      bits.push_back(std::bit_cast<std::uint64_t>((*f)[l]));
    }
  }
  return bits;
}

/// Every field of lane l of a set to random bits (NaNs included).
void scribble_lane(core::accumulator_lanes& a, unsigned l, stats::rng& r) {
  for (auto* c : {&a.samples, &a.n1_positive, &a.n2_positive, &a.n1_zero_pfd, &a.n2_zero_pfd}) {
    (*c)[l] = r();
  }
  for (core::moments_lanes* m : {&a.theta1, &a.theta2}) {
    for (auto* f : {&m->m1, &m->m2, &m->m3, &m->m4, &m->min, &m->max}) {
      (*f)[l] = std::bit_cast<double>(r());
    }
  }
}

/// The faults present in at least `votes` of `channels`.
core::fault_mask defeated_set(const std::vector<core::fault_mask>& channels, unsigned votes,
                              std::size_t n) {
  core::fault_mask defeated(n);
  for (std::size_t i = 0; i < n; ++i) {
    unsigned hits = 0;
    for (const core::fault_mask& m : channels) hits += m.test(i) ? 1 : 0;
    if (hits >= votes) defeated.set(i);
  }
  return defeated;
}

TEST(RecordPairLane, MatchesRunningMomentsAndSparseSumsOnEveryVotesShape) {
  // Every votes-of-versions shape up to kMaxFoldVersions channels, ω 0, 0.6
  // and 1, universes of one fault to several words with partial last words:
  // lanes 0 and 7 record ten pairs each, alternating, and each record must
  // be what experiment_accumulator::add of the sparse ascending sums records,
  // bit for bit, with θ1 and ω·θD handed to pair_thetas and every other lane
  // of the accumulators and of the θs left as it was.
  constexpr unsigned kLanes = core::kXoshiroLanes;
  constexpr int kSteps = 20;
  const double densities[] = {0.02, 0.3, 0.7, 0.97};
  std::vector<std::pair<unsigned, unsigned>> shapes;
  for (const unsigned versions : {1u, 2u, 3u, 5u}) {
    for (unsigned votes = 1; votes <= versions; ++votes) shapes.emplace_back(versions, votes);
  }
  for (const unsigned votes : {1u, 2u, 33u, 63u, 64u}) {
    shapes.emplace_back(core::kMaxFoldVersions, votes);
  }
  stats::rng r(4242);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 256u}) {
    // q spans several binades so a reordered add or Welford term moves bits.
    std::vector<double> q(n);
    for (double& qi : q) qi = std::ldexp(r.uniform(), -static_cast<int>(r() % 12)) / 8.0;
    for (const auto& [versions, votes] : shapes) {
      for (const double omega : {0.0, 0.6, 1.0}) {
        const std::string what = "n=" + std::to_string(n) + " " + std::to_string(votes) + "of" +
                                 std::to_string(versions) + " omega=" + std::to_string(omega);
        // Lanes 0 and 7 start empty (their first record meets no earlier
        // pair); the others hold random bits that must survive.
        core::accumulator_lanes got;
        for (unsigned l = 1; l + 1 < kLanes; ++l) scribble_lane(got, l, r);
        std::array<mc::experiment_accumulator, kLanes> want;
        std::vector<core::fault_mask> channels(versions);
        for (int step = 0; step < kSteps; ++step) {
          const unsigned lane = step % 2 == 0 ? 0 : kLanes - 1;
          // Steps 0 and 1 clear every mask and steps 2 and 3 set every bit;
          // the rest draw each mask at its own density.
          for (core::fault_mask& m : channels) {
            m.resize(n);
            const double density = densities[r() % 4];
            for (std::size_t i = 0; i < n; ++i) {
              if ((step / 2 == 1) || (step > 3 && r.uniform() < density)) m.set(i);
            }
          }
          const core::fault_mask defeated = defeated_set(channels, votes, n);
          const double theta1 = core::masked_q_sum(channels[0], q);
          const double theta2 = omega * core::masked_q_sum(defeated, q);
          want[lane].add(theta1, theta2, channels[0].any(), defeated.any() && omega > 0.0);
          const core::accumulator_lanes before = got;
          core::pair_thetas thetas;
          for (unsigned l = 0; l < kLanes; ++l) thetas.theta1[l] = thetas.theta2[l] = -1.0 - l;
          core::record_pair_lane(got, lane, channels, votes, omega, q, &thetas);
          const std::string at =
              what + " step " + std::to_string(step) + " lane " + std::to_string(lane);
          expect_lane_state(got, lane, want[lane].state(), at);
          for (unsigned l = 0; l < kLanes; ++l) {
            if (l == lane) {
              EXPECT_TRUE(bits_equal(thetas.theta1[l], theta1)) << at << " theta1";
              EXPECT_TRUE(bits_equal(thetas.theta2[l], theta2)) << at << " theta2";
            } else {
              EXPECT_EQ(lane_bits(got, l), lane_bits(before, l)) << at << ": lane " << l;
              EXPECT_EQ(thetas.theta1[l], -1.0 - l) << at << ": theta1 of lane " << l;
              EXPECT_EQ(thetas.theta2[l], -1.0 - l) << at << ": theta2 of lane " << l;
            }
          }
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

/// mc::run_pair_campaign's θ2 before the campaign joined the lane groups,
/// copied here as the reference of the weighted per-lane record: Σ w[i] over
/// the faults a and b share, ascending, and whether some shared fault has
/// w[i] > 0 (a common fault with w == 0 never produces a common failure
/// point, so it must not count toward N2 > 0).
core::pair_intersection_result intersect_weighted_sum(const core::fault_mask& a,
                                                      const core::fault_mask& b,
                                                      std::span<const double> w) noexcept {
  core::pair_intersection_result out;
  const std::uint64_t* wa = a.words();
  const std::uint64_t* wb = b.words();
  for (std::size_t blk = 0; blk < a.word_count(); ++blk) {
    std::uint64_t common = wa[blk] & wb[blk];
    while (common != 0) {
      const double wi = w[(blk << 6) + static_cast<std::size_t>(std::countr_zero(common))];
      out.pfd += wi;
      if (wi > 0.0) out.any_common = true;
      common &= common - 1;
    }
  }
  return out;
}

TEST(RecordPairLane, WeightedRecordMatchesThePairCampaignReference) {
  // The pair campaign's record: channels (a, b), votes 2, ω 1 and a θ2
  // weight span.  q and the weights each hold zeros (about a third, drawn
  // independently), universes run from one fault to several words with
  // partial last words, and every lane records in turn, three rounds: both
  // channels full (every fault shared, zero weights included), channels at
  // random densities, and channels holding only zero-weight faults (shared
  // faults, yet no common failure point).  Each record must be what the
  // campaign's former loop recorded — experiment_accumulator::add of
  // masked_q_sum(a, q) and intersect_weighted_sum(a, b, w) — bit for bit,
  // with θ1 and θ2 handed to pair_thetas and every other lane of the
  // accumulators and of the θs left as it was.
  constexpr unsigned kLanes = core::kXoshiroLanes;
  stats::rng r(777);
  const auto binades = [&r] {
    return std::ldexp(r.uniform(), -static_cast<int>(r() % 12)) / 8.0;
  };
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    std::vector<double> q(n);
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = r() % 3 == 0 ? 0.0 : binades();
      w[i] = r() % 3 == 0 ? 0.0 : binades();
    }
    core::accumulator_lanes got;
    std::array<mc::experiment_accumulator, kLanes> want;
    std::vector<core::fault_mask> channels(2, core::fault_mask(n));
    for (unsigned step = 0; step < 2 * 3 * kLanes; ++step) {
      const unsigned lane = step % kLanes;
      const unsigned round = step / kLanes % 3;
      for (core::fault_mask& m : channels) {
        m.clear();
        const double density = r.uniform();
        for (std::size_t i = 0; i < n; ++i) {
          const bool held = round == 0 || (r.uniform() < density && (round == 1 || w[i] == 0.0));
          if (held) m.set(i);
        }
      }
      const double theta1 = core::masked_q_sum(channels[0], q);
      const auto pair = intersect_weighted_sum(channels[0], channels[1], w);
      want[lane].add(theta1, pair.pfd, channels[0].any(), pair.any_common);
      const core::accumulator_lanes before = got;
      core::pair_thetas thetas;
      for (unsigned l = 0; l < kLanes; ++l) thetas.theta1[l] = thetas.theta2[l] = -1.0 - l;
      core::record_pair_lane(got, lane, channels, 2, 1.0, q, &thetas, w);
      const std::string at = "n=" + std::to_string(n) + " step " + std::to_string(step);
      expect_lane_state(got, lane, want[lane].state(), at);
      for (unsigned l = 0; l < kLanes; ++l) {
        if (l == lane) {
          EXPECT_TRUE(bits_equal(thetas.theta1[l], theta1)) << at << " theta1";
          EXPECT_TRUE(bits_equal(thetas.theta2[l], pair.pfd)) << at << " theta2";
        } else {
          EXPECT_EQ(lane_bits(got, l), lane_bits(before, l)) << at << ": lane " << l;
          EXPECT_EQ(thetas.theta1[l], -1.0 - l) << at << ": theta1 of lane " << l;
          EXPECT_EQ(thetas.theta2[l], -1.0 - l) << at << ": theta2 of lane " << l;
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // A weight span of another size than q is refused before any lane moves;
  // an empty one records q, as with no span at all.
  const std::vector<double> q(10, 0.1);
  const std::vector<double> w(11, 0.1);
  std::vector<core::fault_mask> channels(2, core::fault_mask(10));
  channels[0].set(3);
  channels[1].set(3);
  core::accumulator_lanes acc;
  for (const std::size_t size : {9u, 11u}) {
    EXPECT_THROW(core::record_pair_lane(acc, 0, channels, 2, 1.0, q, nullptr,
                                        std::span(w).first(size)),
                 std::invalid_argument)
        << size;
  }
  EXPECT_EQ(acc.samples[0], 0u);
  core::record_pair_lane(acc, 0, channels, 2, 1.0, q, nullptr, {});
  EXPECT_EQ(acc.samples[0], 1u);
  EXPECT_EQ(acc.n2_positive[0], 1u);
  EXPECT_EQ(acc.theta2.m1[0], 0.1);
}

TEST(RecordPairLane, RejectsBadShapes) {
  core::accumulator_lanes acc;
  const std::vector<double> q(10, 0.1);
  std::vector<core::fault_mask> channels(2, core::fault_mask(10));
  const auto record = [&](unsigned votes, unsigned lane) {
    core::record_pair_lane(acc, lane, channels, votes, 1.0, q);
  };
  EXPECT_THROW(record(0, 0), std::invalid_argument);
  EXPECT_THROW(record(3, 0), std::invalid_argument);
  EXPECT_THROW(record(2, core::kXoshiroLanes), std::invalid_argument);
  EXPECT_NO_THROW(record(2, core::kXoshiroLanes - 1));
  // A lane records on its own count, whatever the others hold.
  acc.samples[2] = 5;
  EXPECT_NO_THROW(record(2, 0));
  EXPECT_NO_THROW(record(2, 2));
  EXPECT_EQ(acc.samples[2], 6u);
  // A channel of another size: a sampler built over another universe.
  channels[1] = core::fault_mask(11);
  EXPECT_THROW(record(2, 0), std::out_of_range);
  channels.assign(core::kMaxFoldVersions + 1, core::fault_mask(10));
  EXPECT_THROW(record(2, 0), std::invalid_argument);
  channels.clear();
  EXPECT_THROW(record(1, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Counter pair step vs the reference draw and experiment_accumulator::add
// ---------------------------------------------------------------------------

/// One lane's reference pair step: pair `pair` of counter stream `key`
/// drawn by the stream's reference and recorded as the fast-simd shard loop
/// records it, by experiment_accumulator::add of masked_q_sum(a) and
/// intersect_q_sum(a, b).  Returns (θ1, θ2).
std::pair<double, double> reference_counter_pair(const core::counter_sample_plan& plan,
                                                 const core::fault_universe& u,
                                                 std::uint64_t key, std::uint64_t pair,
                                                 mc::experiment_accumulator& acc) {
  core::fault_mask a;
  core::fault_mask b;
  draw_reference_pair(plan, u, key, pair, a, b);
  const core::pair_intersection_result common = core::intersect_q_sum(a, b, u.q_array());
  const double theta1 = core::masked_q_sum(a, u.q_array());
  acc.add(theta1, common.pfd, a.any(), common.any_common);
  return {theta1, common.pfd};
}

/// The counter pair step on u at `level`, on eight distinct streams, for
/// every group size: `active` lanes run three lockstep pair steps, then the
/// first `longer` of them one more, as run_shard_lanes schedules shards whose
/// sizes differ by one (active 0 is a group's empty tail).  Every step must
/// record what the reference records on each live lane and hand its θ1 and
/// θ2 to pair_thetas, leaving the accumulators and θs of the spare lanes as
/// they were.
void run_counter_step_case(const core::fault_universe& u, std::uint64_t seed,
                           core::simd_level level, const std::string& what,
                           stats::rng& scribbles) {
  constexpr unsigned kLanes = core::kXoshiroLanes;
  const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
  std::array<std::uint64_t, kLanes> keys{};
  for (unsigned l = 0; l < kLanes; ++l) keys[l] = stats::counter_stream_key(seed, l);
  for (unsigned active = 0; active <= kLanes; ++active) {
    const unsigned longer = active / 2;
    core::accumulator_lanes got;
    for (unsigned l = active; l < kLanes; ++l) scribble_lane(got, l, scribbles);
    const core::accumulator_lanes start = got;
    std::vector<mc::experiment_accumulator> want(active);
    for (std::uint64_t pair = 0; pair < 4; ++pair) {
      const unsigned live = pair < 3 ? active : longer;
      core::pair_thetas thetas;
      for (unsigned l = 0; l < kLanes; ++l) {
        thetas.theta1[l] = -1.0 - l;
        thetas.theta2[l] = -2.0 - l;
      }
      core::counter_pair_step_lanes(plan, u, keys, pair, got, live, level, &thetas);
      const std::string at = what + " active " + std::to_string(active) + " pair " +
                             std::to_string(pair) + " lane ";
      for (unsigned l = 0; l < kLanes; ++l) {
        if (l < live) {
          const auto [theta1, theta2] =
              reference_counter_pair(plan, u, keys[l], pair, want[l]);
          EXPECT_TRUE(bits_equal(thetas.theta1[l], theta1)) << at << l << " theta1";
          EXPECT_TRUE(bits_equal(thetas.theta2[l], theta2)) << at << l << " theta2";
        } else {
          EXPECT_EQ(thetas.theta1[l], -1.0 - l) << at << l << " (spare theta1)";
          EXPECT_EQ(thetas.theta2[l], -2.0 - l) << at << l << " (spare theta2)";
        }
        if (l < active) {
          expect_lane_state(got, l, want[l].state(), at + std::to_string(l));
        } else {
          EXPECT_EQ(lane_bits(got, l), lane_bits(start, l))
              << at << l << " (spare accumulator written)";
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(CounterPairStep, MatchesReferenceOnEveryWordKindAtEveryLevel) {
  // The fuzz corpus's zero, one, slice, paired32 (p = 1 atoms saturating
  // their 32-bit threshold) and wide53 words, partial last words, and the
  // empty and one-fault universes.
  stats::rng scribbles(11);
  for (const auto level : levels_up_to_detected()) {
    const std::string lvl = core::simd_level_name(level);
    run_counter_step_case(core::fault_universe(), 1, level, lvl + " empty", scribbles);
    run_counter_step_case(core::make_homogeneous_universe(1, 0.5, 0.1), 1, level,
                          lvl + " single", scribbles);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (const auto& [name, u] : fuzz_universes(seed)) {
        run_counter_step_case(u, seed, level, lvl + " " + name, scribbles);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(CounterPairStep, RejectsBadShapes) {
  const core::fault_universe u = core::make_random_universe(70, 0.3, 0.5, 2);
  const core::counter_sample_plan plan = core::make_counter_sample_plan(u);
  const std::array<std::uint64_t, core::kXoshiroLanes> keys{1, 2, 3, 4, 5, 6, 7, 8};
  core::accumulator_lanes acc;
  const auto step = [&](const core::counter_sample_plan& p, const core::fault_universe& v,
                        unsigned live) {
    core::counter_pair_step_lanes(p, v, keys, 0, acc, live, core::simd_level::scalar);
  };
  EXPECT_NO_THROW(step(plan, u, core::kXoshiroLanes));
  EXPECT_THROW(step(plan, u, core::kXoshiroLanes + 1), std::invalid_argument);
  // A plan built over another universe.
  const core::fault_universe other = core::make_random_universe(71, 0.3, 0.5, 2);
  EXPECT_THROW(step(plan, other, 1), std::invalid_argument);
  EXPECT_THROW(step(core::make_counter_sample_plan(other), u, 1), std::invalid_argument);
  // A plan whose 32-bit thresholds do not cover every fault.
  core::counter_sample_plan short_plan = plan;
  short_plan.thresholds32.pop_back();
  EXPECT_THROW(step(short_plan, u, 1), std::invalid_argument);
  // Live lanes holding different sample counts; live 0 records nothing.
  acc = core::accumulator_lanes();
  acc.samples[2] = 5;
  EXPECT_THROW(step(plan, u, 3), std::invalid_argument);
  EXPECT_NO_THROW(step(plan, u, 2));
  EXPECT_NO_THROW(step(plan, u, 0));
  EXPECT_EQ(acc.samples[0], 1u);
  EXPECT_EQ(acc.samples[2], 5u);
}

// ---------------------------------------------------------------------------
// xoshiro pair step vs the scalar samplers and experiment_accumulator::add
// ---------------------------------------------------------------------------

/// Eight distinct jump-derived streams, as a cell's shard group has.
core::xoshiro_lanes jump_lanes(std::uint64_t seed) {
  core::xoshiro_lanes lanes;
  stats::rng walker(seed);
  for (unsigned l = 0; l < core::kXoshiroLanes; ++l) {
    lanes.set_lane(l, walker);
    walker.jump();
  }
  return lanes;
}

/// The scalar reference of one lane's pair step: `versions` channels drawn
/// in order by draw(r, mask), then what experiment_accumulator::add records
/// for them — θ1 over channel 0, ω·θD over the faults at least `votes`
/// channels hold, each an ascending sparse sum.  Returns (θ1, ω·θD).
template <typename Draw>
std::pair<double, double> reference_pair(stats::rng& r, const Draw& draw, unsigned versions,
                                         unsigned votes, double omega,
                                         std::span<const double> q,
                                         mc::experiment_accumulator& acc) {
  std::vector<core::fault_mask> channels(versions);
  for (core::fault_mask& m : channels) draw(r, m);
  const core::fault_mask defeated = defeated_set(channels, votes, q.size());
  const double theta1 = core::masked_q_sum(channels[0], q);
  const double theta2 = omega * core::masked_q_sum(defeated, q);
  acc.add(theta1, theta2, channels[0].any(), defeated.any() && omega > 0.0);
  return {theta1, theta2};
}

TEST(XoshiroLaneKernel, MatchesScalarMixtureOnEveryLaneAtEveryLevel) {
  // The pair step of a scenario cell (2of2, ω = 1) on the mixture's tables:
  // lane l must record what two sample_mask calls on a scalar copy of its
  // stream and experiment_accumulator::add record, bit for bit, and its
  // stream must end where the copy's does.
  constexpr unsigned kLanes = core::kXoshiroLanes;
  constexpr double kStress = 1.8;
  // rho = 1/stress is the feasibility boundary: every fault with
  // stress * p < 1 gets a relaxed p of 0 up to rounding, clamped to 0 when it
  // rounds below.
  const double rhos[] = {0.0, 0.25, 1.0 / kStress};
  std::vector<std::pair<std::string, core::fault_universe>> universes;
  for (const std::size_t n : {1u, 40u, 63u, 64u, 65u, 256u, 300u}) {
    universes.emplace_back("n=" + std::to_string(n), make_lane_test_universe(n, 1000 + n));
  }
  for (const std::size_t n : {130u, 200u}) {
    universes.emplace_back("saturating n=" + std::to_string(n),
                           make_saturating_lane_universe(n, 2000 + n));
  }
  stats::rng scribbles(99);
  for (const auto level : levels_up_to_detected()) {
    for (const auto& [name, u] : universes) {
      for (const double rho : rhos) {
        const mc::common_cause_mixture mixture(u, rho, kStress);
        const auto sample = [&mixture](stats::rng& r, core::fault_mask& m) {
          mixture.sample_mask(r, m);
        };
        const std::string what = std::string(core::simd_level_name(level)) + " " + name +
                                 " rho=" + std::to_string(rho);
        core::xoshiro_lanes lanes = jump_lanes(77 + u.size());
        std::array<stats::rng, kLanes> scalar;
        for (unsigned l = 0; l < kLanes; ++l) scalar[l] = lanes.lane(l);
        // One accumulator per live count, so its live lanes always hold one
        // sample count; lanes past it hold random bits that must survive.
        std::array<core::accumulator_lanes, kLanes + 1> got{};
        for (unsigned live = 1; live <= kLanes; ++live) {
          for (unsigned l = live; l < kLanes; ++l) scribble_lane(got[live], l, scribbles);
        }
        const std::array<core::accumulator_lanes, kLanes + 1> start = got;
        std::vector<std::vector<mc::experiment_accumulator>> want(kLanes + 1);
        for (unsigned live = 1; live <= kLanes; ++live) want[live].resize(live);
        std::vector<std::uint64_t> hits;
        // Pair steps whose channel 0 has no stressed live lane, and some.
        std::array<int, 2> sides{};
        for (int pair = 0; pair < 500; ++pair) {
          // Cycle the live-lane count through 1..8 (a full group every
          // eighth step): lanes past it must be neither drawn nor advanced,
          // so their scalar copies stay put too.
          const unsigned live = 1 + static_cast<unsigned>(pair) % kLanes;
          unsigned stressed = 0;
          for (unsigned l = 0; l < live; ++l) {
            stats::rng peek = scalar[l];
            stressed += peek.bernoulli(rho) ? 1 : 0;
          }
          ++sides[stressed == 0 ? 0 : 1];
          core::xoshiro_pair_step_lanes(lanes, mixture.lane_tables(), hits, got[live], 2, 2,
                                        1.0, u.q_array(), live, level);
          for (unsigned l = 0; l < live; ++l) {
            (void)reference_pair(scalar[l], sample, 2, 2, 1.0, u.q_array(), want[live][l]);
          }
          const std::string at = what + " pair " + std::to_string(pair) + " live " +
                                 std::to_string(live) + " lane ";
          for (unsigned l = 0; l < kLanes; ++l) {
            ASSERT_EQ(lanes.lane(l).state(), scalar[l].state())
                << at << l << (l < live ? " stream" : " (spare lane advanced)");
            if (l < live) {
              expect_lane_state(got[live], l, want[live][l].state(), at + std::to_string(l));
            } else {
              ASSERT_EQ(lane_bits(got[live], l), lane_bits(start[live], l))
                  << at << l << " (spare accumulator written)";
            }
          }
          if (::testing::Test::HasFailure()) return;
        }
        // rho = 0.25 meets channels with no stressed live lane (the skipped
        // blend) and channels with some.
        if (rho == 0.25) {
          EXPECT_GT(sides[0], 0) << what;
          EXPECT_GT(sides[1], 0) << what;
        }
      }
    }
  }
}

TEST(XoshiroPairStep, RecordsEveryAdjudicationAndOverlapAtEveryLevel) {
  // Every adjudication shape, ω and live-lane schedule a lane group meets:
  // `active` lanes run a few lockstep pair steps, then the first `longer`
  // of them one more, as run_shard_lanes schedules shards whose sizes differ
  // by one (live 0 is a group's empty tail).  Each step must record what the
  // scalar mixture's versions and experiment_accumulator::add record, and
  // hand each live lane's θ1 and ω·θD to pair_thetas, leaving its spare
  // lanes as they were.  Universes of 0 faults (stress draws only), 1 fault
  // and 65 faults with p = 0 and p = 1 atoms, and a saturating one.
  constexpr unsigned kLanes = core::kXoshiroLanes;
  const std::pair<unsigned, unsigned> adjudications[] = {{1, 1}, {2, 1}, {2, 2}, {3, 2},
                                                         {3, 3}, {5, 3}, {64, 2}};
  std::vector<std::pair<std::string, core::fault_universe>> universes;
  universes.emplace_back("n=0", core::fault_universe());
  universes.emplace_back("n=1", core::make_homogeneous_universe(1, 0.5, 0.1));
  universes.emplace_back("n=65", make_lane_test_universe(65, 3065));
  universes.emplace_back("saturating n=130", make_saturating_lane_universe(130, 3130));
  stats::rng scribbles(7);
  for (const auto level : levels_up_to_detected()) {
    for (const auto& [name, u] : universes) {
      const mc::common_cause_mixture mixture(u, 0.3, 1.8);
      const auto sample = [&mixture](stats::rng& r, core::fault_mask& m) {
        mixture.sample_mask(r, m);
      };
      for (const auto& [versions, votes] : adjudications) {
        // 64 channels of 130 faults cost a while at the scalar level; one
        // universe with every word kind is enough there.
        if (versions == 64 && u.size() > 65) continue;
        for (const double omega : {0.0, 0.6, 1.0}) {
          for (unsigned active = 0; active <= kLanes; ++active) {
            const unsigned longer = active / 2;
            const std::string what = std::string(core::simd_level_name(level)) + " " + name +
                                     " " + std::to_string(votes) + "of" +
                                     std::to_string(versions) +
                                     " omega=" + std::to_string(omega) +
                                     " active=" + std::to_string(active);
            core::xoshiro_lanes lanes = jump_lanes(500 + versions + active);
            std::array<stats::rng, kLanes> scalar;
            for (unsigned l = 0; l < kLanes; ++l) scalar[l] = lanes.lane(l);
            core::accumulator_lanes got;
            for (unsigned l = active; l < kLanes; ++l) scribble_lane(got, l, scribbles);
            const core::accumulator_lanes start = got;
            std::vector<mc::experiment_accumulator> want(active);
            std::vector<std::uint64_t> hits;
            for (int pair = 0; pair < 4; ++pair) {
              const unsigned live = pair < 3 ? active : longer;
              core::pair_thetas thetas;
              for (unsigned l = 0; l < kLanes; ++l) {
                thetas.theta1[l] = -1.0 - l;
                thetas.theta2[l] = -2.0 - l;
              }
              core::xoshiro_pair_step_lanes(lanes, mixture.lane_tables(), hits, got, versions,
                                            votes, omega, u.q_array(), live, level, &thetas);
              const std::string at = what + " pair " + std::to_string(pair) + " lane ";
              for (unsigned l = 0; l < kLanes; ++l) {
                if (l < live) {
                  const auto [theta1, theta2] = reference_pair(scalar[l], sample, versions, votes,
                                                               omega, u.q_array(), want[l]);
                  EXPECT_TRUE(bits_equal(thetas.theta1[l], theta1)) << at << l << " theta1";
                  EXPECT_TRUE(bits_equal(thetas.theta2[l], theta2)) << at << l << " theta2";
                } else {
                  EXPECT_EQ(thetas.theta1[l], -1.0 - l) << at << l << " (spare theta1)";
                  EXPECT_EQ(thetas.theta2[l], -2.0 - l) << at << l << " (spare theta2)";
                }
                ASSERT_EQ(lanes.lane(l).state(), scalar[l].state()) << at << l << " stream";
                if (l < active) {
                  expect_lane_state(got, l, want[l].state(), at + std::to_string(l));
                } else {
                  EXPECT_EQ(lane_bits(got, l), lane_bits(start, l))
                      << at << l << " (spare accumulator written)";
                }
              }
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(XoshiroPairStep, ExactTablesMatchSampleVersionMask) {
  // The `exact` engine's step: no stress draw, the universe's own
  // thresholds, 2of2 and ω = 1.  Lane l must record what two
  // sample_version_mask calls on its stream record.  The universes hold p =
  // 0 and p = 1 faults (p = 1's shifted threshold saturates, so the AVX-512
  // level takes it from the word's saturated mask) in every word position.
  constexpr unsigned kLanes = core::kXoshiroLanes;
  for (const auto level : levels_up_to_detected()) {
    for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 130u, 300u}) {
      const core::fault_universe u = make_lane_test_universe(n, 4000 + n);
      const core::xoshiro_lane_tables tables =
          core::make_threshold_lane_tables(u.bernoulli_thresholds());
      const auto sample = [&u](stats::rng& r, core::fault_mask& m) {
        mc::sample_version_mask(u, r, m);
      };
      const std::string what =
          std::string(core::simd_level_name(level)) + " n=" + std::to_string(n);
      core::xoshiro_lanes lanes = jump_lanes(n);
      std::array<stats::rng, kLanes> scalar;
      for (unsigned l = 0; l < kLanes; ++l) scalar[l] = lanes.lane(l);
      core::accumulator_lanes got;
      std::vector<mc::experiment_accumulator> want(kLanes);
      std::vector<std::uint64_t> hits;
      for (int pair = 0; pair < 64; ++pair) {
        core::xoshiro_pair_step_lanes(lanes, tables, hits, got, 2, 2, 1.0, u.q_array(), kLanes,
                                      level);
        for (unsigned l = 0; l < kLanes; ++l) {
          (void)reference_pair(scalar[l], sample, 2, 2, 1.0, u.q_array(), want[l]);
          const std::string at = what + " pair " + std::to_string(pair) + " lane " +
                                 std::to_string(l);
          ASSERT_EQ(lanes.lane(l).state(), scalar[l].state()) << at << " stream";
          expect_lane_state(got, l, want[l].state(), at);
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(XoshiroLaneKernel, RejectsMismatchedThresholdSpans) {
  core::xoshiro_lanes lanes;
  core::accumulator_lanes acc;
  std::vector<std::uint64_t> hits;
  const core::xoshiro_lane_tables tables =
      core::make_mixture_lane_tables(0, std::vector<std::uint64_t>(5, 1),
                                     std::vector<std::uint64_t>(5, 1));
  std::vector<double> q(5, 0.1);
  const auto step = [&](const core::xoshiro_lane_tables& t, unsigned versions, unsigned votes,
                        unsigned live) {
    core::xoshiro_pair_step_lanes(lanes, t, hits, acc, versions, votes, 1.0, q, live,
                                  core::simd_level::scalar);
  };
  EXPECT_NO_THROW(step(tables, 2, 2, core::kXoshiroLanes));
  EXPECT_THROW(step(tables, 2, 2, core::kXoshiroLanes + 1), std::invalid_argument);
  EXPECT_THROW(step(tables, 2, 0, 1), std::invalid_argument);
  EXPECT_THROW(step(tables, 2, 3, 1), std::invalid_argument);
  EXPECT_THROW(step(tables, core::kMaxFoldVersions + 1, 2, 1), std::invalid_argument);
  EXPECT_THROW(step(tables, 0, 1, 1), std::invalid_argument);
  using table_field = std::vector<std::uint64_t> core::xoshiro_lane_tables::*;
  for (const table_field table :
       {&core::xoshiro_lane_tables::relaxed_always, &core::xoshiro_lane_tables::stressed_always,
        &core::xoshiro_lane_tables::stressed_shifted, &core::xoshiro_lane_tables::relaxed}) {
    core::xoshiro_lane_tables torn = tables;
    (torn.*table).pop_back();
    EXPECT_THROW(step(torn, 2, 2, 1), std::invalid_argument);
  }
  core::xoshiro_lane_tables plain = core::make_threshold_lane_tables(tables.relaxed);
  EXPECT_NO_THROW(step(plain, 2, 2, 1));
  plain.stressed = tables.stressed;  // stressed tables without a stress draw
  EXPECT_THROW(step(plain, 2, 2, 1), std::invalid_argument);
  // Live lanes holding different sample counts.
  acc = core::accumulator_lanes();
  acc.samples[2] = 5;
  EXPECT_THROW(step(tables, 2, 2, 3), std::invalid_argument);
  EXPECT_NO_THROW(step(tables, 2, 2, 2));
  // A sampler over another universe.
  q.assign(6, 0.1);
  EXPECT_THROW(step(tables, 2, 2, 1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Engine-level bit-identity
// ---------------------------------------------------------------------------

/// The bits of every value, in order.
std::vector<std::uint64_t> value_bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits;
  for (const double x : v) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

/// An experiment_result as the accumulator_state it was packaged from.
mc::accumulator_state result_state(const mc::experiment_result& r) {
  mc::accumulator_state s;
  s.samples = r.samples;
  s.theta1 = r.theta1.state();
  s.theta2 = r.theta2.state();
  s.n1_positive = r.n1_positive;
  s.n2_positive = r.n2_positive;
  s.n1_zero_pfd = r.n1_zero_pfd;
  s.n2_zero_pfd = r.n2_zero_pfd;
  s.keeping_samples = r.theta1_samples.has_value();
  if (r.theta1_samples) s.theta1_samples = *r.theta1_samples;
  if (r.theta2_samples) s.theta2_samples = *r.theta2_samples;
  return s;
}

/// The shard layout and the full accumulator_state, bit for bit: every
/// moment, min and max, counter and kept sample.
void expect_results_identical(const mc::experiment_result& x,
                              const mc::experiment_result& y,
                              const std::string& what) {
  EXPECT_EQ(x.shards, y.shards) << what;
  const mc::accumulator_state sx = result_state(x);
  const mc::accumulator_state sy = result_state(y);
  EXPECT_EQ(sx.samples, sy.samples) << what;
  EXPECT_TRUE(moments_bits_equal(sx.theta1, sy.theta1)) << what << " theta1";
  EXPECT_TRUE(moments_bits_equal(sx.theta2, sy.theta2)) << what << " theta2";
  EXPECT_EQ(sx.n1_positive, sy.n1_positive) << what;
  EXPECT_EQ(sx.n2_positive, sy.n2_positive) << what;
  EXPECT_EQ(sx.n1_zero_pfd, sy.n1_zero_pfd) << what;
  EXPECT_EQ(sx.n2_zero_pfd, sy.n2_zero_pfd) << what;
  EXPECT_EQ(sx.keeping_samples, sy.keeping_samples) << what;
  EXPECT_EQ(value_bits(sx.theta1_samples), value_bits(sy.theta1_samples)) << what;
  EXPECT_EQ(value_bits(sx.theta2_samples), value_bits(sy.theta2_samples)) << what;
}

TEST(ExactEngine, KeptSamplesMatchReferenceShardLoopAtEveryLevel) {
  // `exact` draws through the xoshiro pair step on the universe's own
  // thresholds: every kept θ, and the whole state, must be what two
  // sample_version_mask calls per pair record shard by shard in ascending
  // order, at every level the host runs and any thread count.  13 shards of
  // 1003 pairs: a partial last group, and shards 0-1 one pair longer than the
  // rest.  The universe holds p = 0 and p = 1 faults.
  const core::fault_universe u = make_lane_test_universe(130, 5130);
  mc::experiment_config cfg;
  cfg.samples = 1003;
  cfg.seed = 31;
  cfg.shards = 13;
  cfg.keep_samples = true;
  cfg.engine = mc::sampling_engine::exact;
  const mc::shard_plan plan = mc::make_shard_plan(cfg.samples, cfg.shards);
  mc::experiment_accumulator want_acc(true);
  core::fault_mask a;
  core::fault_mask b;
  for (unsigned shard = 0; shard < plan.shard_count; ++shard) {
    mc::experiment_accumulator acc(true);
    stats::rng r = stats::rng::stream(cfg.seed, shard);
    for (std::uint64_t s = 0; s < plan.shard_samples(shard); ++s) {
      mc::sample_version_mask(u, r, a);
      mc::sample_version_mask(u, r, b);
      const core::pair_intersection_result pair = core::intersect_q_sum(a, b, u.q_array());
      acc.add(core::masked_q_sum(a, u.q_array()), pair.pfd, a.any(), pair.any_common);
    }
    want_acc.merge(acc);
  }
  mc::experiment_result want = want_acc.to_result(cfg.ci_level);
  want.shards = plan.shard_count;
  for (const auto level : levels_up_to_detected()) {
    core::set_simd_level_cap(level);
    for (const unsigned threads : {1u, 3u}) {
      cfg.threads = threads;
      expect_results_identical(mc::run_experiment(u, cfg), want,
                               std::string(core::simd_level_name(level)) +
                                   " threads=" + std::to_string(threads));
    }
    core::clear_simd_level_cap();
  }
}

TEST(FastSimdEngine, BitIdenticalAcrossThreadCounts) {
  const auto u = make_scattered_palette_universe(200, 5);
  mc::experiment_config cfg;
  cfg.samples = 4096;
  cfg.seed = 404;
  cfg.engine = mc::sampling_engine::fast_simd;
  cfg.threads = 1;
  const auto baseline = mc::run_experiment(u, cfg);
  for (unsigned threads : {2u, 7u, 0u}) {
    cfg.threads = threads;
    expect_results_identical(mc::run_experiment(u, cfg), baseline,
                             "threads=" + std::to_string(threads));
  }
}

TEST(FastSimdEngine, BitIdenticalAcrossSimdLevels) {
  // The dispatch level is a throughput knob, never a results knob: capping
  // to scalar or to AVX2 must reproduce the uncapped (possibly AVX-512) run
  // bit-for-bit, on a scattered universe (mostly slice words after the
  // relayout) and a random one (paired32 words).
  const core::fault_universe universes[] = {make_scattered_palette_universe(300, 6),
                                            core::make_random_universe(300, 0.3, 0.8, 5)};
  for (const core::fault_universe& u : universes) {
    mc::experiment_config cfg;
    cfg.samples = 4096;
    cfg.seed = 17;
    cfg.engine = mc::sampling_engine::fast_simd;
    core::clear_simd_level_cap();
    const auto uncapped = mc::run_experiment(u, cfg);
    for (const auto cap : {core::simd_level::scalar, core::simd_level::avx2}) {
      core::set_simd_level_cap(cap);
      const auto capped = mc::run_experiment(u, cfg);
      core::clear_simd_level_cap();
      expect_results_identical(capped, uncapped,
                               std::string("simd level cap ") + core::simd_level_name(cap));
    }
  }
}

TEST(FastSimdEngine, ShardWindowSplitReproducesFullRun) {
  const auto u = core::make_random_universe(150, 0.2, 0.4, 3);
  mc::experiment_config cfg;
  cfg.samples = 2048;
  cfg.seed = 9;
  cfg.engine = mc::sampling_engine::fast_simd;
  const unsigned shards = mc::experiment_shard_count(cfg);
  ASSERT_GT(shards, 2u);

  const auto full = mc::run_experiment(u, cfg);
  mc::experiment_accumulator acc(cfg.keep_samples);
  mc::run_experiment_shards(u, cfg, 0, shards / 3, acc);
  mc::run_experiment_shards(u, cfg, shards / 3, shards, acc);
  auto split = acc.to_result(cfg.ci_level);
  split.shards = shards;
  expect_results_identical(split, full, "split shard windows");

  // And through the distributed window unit + ascending-order merge.
  const auto m = mc::make_experiment_manifest(u, cfg, /*window=*/5);
  mc::experiment_accumulator wacc(cfg.keep_samples);
  for (std::uint64_t w = 0; w < m.window_count(); ++w) {
    const auto wr = mc::run_experiment_window(m, w, /*threads=*/2);
    for (const auto& s : wr.shard_states) {
      wacc.merge(mc::experiment_accumulator::from_state(s));
    }
  }
  auto windowed = wacc.to_result(cfg.ci_level);
  windowed.shards = shards;
  expect_results_identical(windowed, full, "window merge");
}

TEST(FastSimdEngine, KeptSamplesMatchReferenceShardLoop) {
  // keep_samples runs go through the lane groups as well: every kept θ, and
  // the whole state, must be what the reference loop records shard by shard
  // in ascending order.  13 shards of 1003 pairs: a partial last group, and
  // shards 0-1 one pair longer than the rest.  The universes give slice and
  // paired32 words (the scattered palette) and wide53 words (off-grid).
  const core::fault_universe universes[] = {make_scattered_palette_universe(200, 5),
                                            make_off_grid_universe(4)};
  for (const core::fault_universe& u : universes) {
    mc::experiment_config cfg;
    cfg.samples = 1003;
    cfg.seed = 31;
    cfg.shards = 13;
    cfg.keep_samples = true;
    cfg.engine = mc::sampling_engine::fast_simd;
    const core::fault_universe pu = core::make_p_sorted_permutation(u).universe;
    const core::counter_sample_plan counters = core::make_counter_sample_plan(pu);
    const mc::shard_plan plan = mc::make_shard_plan(cfg.samples, cfg.shards);
    mc::experiment_accumulator want_acc(true);
    core::fault_mask a;
    core::fault_mask b;
    for (unsigned shard = 0; shard < plan.shard_count; ++shard) {
      mc::experiment_accumulator acc(true);
      const std::uint64_t key = stats::counter_stream_key(cfg.seed, shard);
      for (std::uint64_t s = 0; s < plan.shard_samples(shard); ++s) {
        draw_reference_pair(counters, pu, key, s, a, b);
        const core::pair_intersection_result pair = core::intersect_q_sum(a, b, pu.q_array());
        acc.add(core::masked_q_sum(a, pu.q_array()), pair.pfd, a.any(), pair.any_common);
      }
      want_acc.merge(acc);
    }
    mc::experiment_result want = want_acc.to_result(cfg.ci_level);
    want.shards = plan.shard_count;
    ASSERT_EQ(want.theta1_samples->size(), cfg.samples);
    const std::string name = std::to_string(u.size()) + " faults";
    for (const unsigned threads : {1u, 3u}) {
      cfg.threads = threads;
      expect_results_identical(mc::run_experiment(u, cfg), want,
                               name + " threads=" + std::to_string(threads));
    }
    // Windows of five shards, each its own partial group, merged in order.
    const mc::experiment_manifest m = mc::make_experiment_manifest(u, cfg, 5);
    mc::experiment_accumulator windowed_acc(true);
    for (std::uint64_t w = 0; w < m.window_count(); ++w) {
      for (const mc::accumulator_state& st : mc::run_experiment_window(m, w, 2).shard_states) {
        windowed_acc.merge(mc::experiment_accumulator::from_state(st));
      }
    }
    mc::experiment_result windowed = windowed_acc.to_result(cfg.ci_level);
    windowed.shards = plan.shard_count;
    expect_results_identical(windowed, want, name + " window merge");
  }
}

TEST(FastSimdEngine, StatisticalSanityVsExactEngine) {
  // fast-simd is NOT stream-compatible with exact, but both estimate the
  // same quantities: means must agree within a few CI widths.
  const auto u = make_scattered_palette_universe(128, 21);
  mc::experiment_config cfg;
  cfg.samples = 50'000;
  cfg.seed = 1234;
  cfg.engine = mc::sampling_engine::exact;
  const auto exact = mc::run_experiment(u, cfg);
  cfg.engine = mc::sampling_engine::fast_simd;
  const auto simd = mc::run_experiment(u, cfg);
  const double width1 =
      exact.mean_theta1().ci.hi - exact.mean_theta1().ci.lo + 1e-12;
  EXPECT_NEAR(simd.mean_theta1().value, exact.mean_theta1().value, 3 * width1);
  const double width2 =
      exact.mean_theta2().ci.hi - exact.mean_theta2().ci.lo + 1e-12;
  EXPECT_NEAR(simd.mean_theta2().value, exact.mean_theta2().value, 3 * width2);
}

TEST(FastSimdEngine, PerFaultReportingInverseMapsToOriginalIndices) {
  // The engine samples in permuted space; per-fault reporting must come back
  // through mask_to_original so fault identities survive the relayout.
  const auto u = make_scattered_palette_universe(100, 8);
  const auto perm = core::make_p_sorted_permutation(u);
  core::fault_mask pa, pb;
  draw_reference_pair(core::make_counter_sample_plan(perm.universe), perm.universe, 77, 0, pa,
                      pb);
  const core::fault_mask a = perm.mask_to_original(pa);
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(a.test(i), pa.test(perm.index_to_permuted(i)));
  }
  // θ of the reported (original-layout) mask equals θ of the permuted mask
  // up to summation order (same addends, different order).
  const double theta_original = core::masked_q_sum(a, u.q_array());
  const double theta_permuted =
      core::masked_q_sum(pa, perm.universe.q_array());
  EXPECT_NEAR(theta_original, theta_permuted, 1e-15);
}

TEST(FastSimdEngine, ManifestWireCodecRoundTripsFastSimd) {
  const auto u = core::make_random_universe(40, 0.3, 0.2, 1);
  mc::experiment_config cfg;
  cfg.samples = 512;
  cfg.engine = mc::sampling_engine::fast_simd;
  const auto m = mc::make_experiment_manifest(u, cfg, 4);
  const auto decoded = mc::decode_experiment_manifest(mc::encode_experiment_manifest(m));
  EXPECT_EQ(decoded.engine, mc::sampling_engine::fast_simd);
  EXPECT_EQ(mc::experiment_manifest_fingerprint(decoded),
            mc::experiment_manifest_fingerprint(m));
  EXPECT_NE(mc::describe_manifest_json(m).find("\"engine\": 3"),
            std::string::npos);
}

TEST(SimdDispatch, PairStepsStartOn64ByteBoundaries) {
  // Every level of both pair steps is defined with aligned(64), so no build
  // moves a step's loops by where the linker happens to place it.
  const std::array<std::pair<const char*, std::uintptr_t>, 6> steps = {{
      {"counter scalar", std::bit_cast<std::uintptr_t>(&core::detail::counter_pair_step_scalar)},
      {"counter avx2", std::bit_cast<std::uintptr_t>(&core::detail::counter_pair_step_avx2)},
      {"counter avx512", std::bit_cast<std::uintptr_t>(&core::detail::counter_pair_step_avx512)},
      {"xoshiro scalar", std::bit_cast<std::uintptr_t>(&core::detail::xoshiro_pair_step_scalar)},
      {"xoshiro avx2", std::bit_cast<std::uintptr_t>(&core::detail::xoshiro_pair_step_avx2)},
      {"xoshiro avx512", std::bit_cast<std::uintptr_t>(&core::detail::xoshiro_pair_step_avx512)},
  }};
  for (const auto& [name, address] : steps) EXPECT_EQ(address % 64, 0u) << name;
}

TEST(SimdDispatch, LevelApiIsConsistent) {
  using core::simd_level;
  // The RELDIV_SIMD cap this process runs under (the CI arms set off, avx2
  // and nothing): off/scalar/0 force scalar, avx2 caps there, else no cap.
  simd_level env_cap = simd_level::avx512;
  if (const char* env = std::getenv("RELDIV_SIMD")) {
    const std::string v(env);
    if (v == "off" || v == "scalar" || v == "0") env_cap = simd_level::scalar;
    if (v == "avx2") env_cap = simd_level::avx2;
  }
  const simd_level detected = core::detected_simd_level();
  EXPECT_EQ(core::active_simd_level(), std::min(detected, env_cap));
  // Caps only ever lower the level: an avx2 cap lowers an AVX-512 host to
  // avx2 and leaves an AVX2 or scalar host where it is.
  for (const simd_level cap : {simd_level::scalar, simd_level::avx2, simd_level::avx512}) {
    core::set_simd_level_cap(cap);
    EXPECT_EQ(core::active_simd_level(), std::min({detected, env_cap, cap}))
        << "cap " << core::simd_level_name(cap);
  }
  core::clear_simd_level_cap();
  EXPECT_STREQ(core::simd_level_name(simd_level::scalar), "scalar");
  EXPECT_STREQ(core::simd_level_name(simd_level::avx2), "avx2");
  EXPECT_STREQ(core::simd_level_name(simd_level::avx512), "avx512");
}

}  // namespace
