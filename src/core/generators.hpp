#pragma once
// Calibrated fault-universe families for the experiments.
//
// The paper's two regimes (Sections 4 and 5) need different parameter
// shapes: "very high-quality software with a high chance of having no
// faults" (few potential faults, all p_i near 0) versus "very many, but
// low-probability faults".  These generators produce both, plus generic
// randomized universes for property tests.  All generation is seeded.

#include <cstdint>
#include <span>

#include "core/fault_universe.hpp"

namespace reldiv::core {

/// §4 regime: safety-grade software.  `n` potential faults, p_i ~ Uniform
/// (p_lo, p_hi) with p_hi small (E[N1] << 1 typical), q_i ~ heavy-tailed
/// (lognormal), normalized so Σq = q_total.
[[nodiscard]] fault_universe make_safety_grade_universe(std::size_t n, double p_lo,
                                                        double p_hi, double q_total,
                                                        std::uint64_t seed);

/// §5 regime: many small faults.  `n` large, p_i ~ Uniform(p_lo, p_hi),
/// q_i roughly equal with `jitter` relative spread, Σq = q_total.
[[nodiscard]] fault_universe make_many_small_faults_universe(std::size_t n, double p_lo,
                                                             double p_hi, double q_total,
                                                             double jitter,
                                                             std::uint64_t seed);

/// Generic randomized universe for property tests: p_i ~ Uniform(0, p_max),
/// q_i ~ Dirichlet-like (normalized exponentials) scaled to q_total.
[[nodiscard]] fault_universe make_random_universe(std::size_t n, double p_max,
                                                  double q_total, std::uint64_t seed);

/// Universe with a single dominant fault plus a background of small ones —
/// exercises the pmax-driven bounds where they are tight.
[[nodiscard]] fault_universe make_dominant_fault_universe(std::size_t n, double p_dominant,
                                                          double p_background,
                                                          double q_total,
                                                          std::uint64_t seed);

/// Equal-parameter universe: all (p, q) identical (closed forms are simple,
/// used heavily in unit tests).
[[nodiscard]] fault_universe make_homogeneous_universe(std::size_t n, double p, double q);

/// One homogeneous run of a grouped universe: `n` faults sharing (p, q).
struct fault_block {
  std::size_t n = 0;
  double p = 0.0;
  double q = 0.0;  ///< per fault
};

/// Concatenation of homogeneous blocks — the "runs of equal p" shape the
/// fast-simd engine bit-slices: core::make_counter_sample_plan makes a word
/// a slice word when a run covers it whole with a cheap threshold.
[[nodiscard]] fault_universe make_grouped_universe(std::span<const fault_block> blocks);

/// A universe calibrated to reproduce the scale of the Knight-Leveson
/// experiment (used by the kl module): a handful of faults whose p_i are
/// chosen so ~27 versions show a few failures, q_i spanning orders of
/// magnitude.
[[nodiscard]] fault_universe make_knight_leveson_like_universe(std::uint64_t seed);

}  // namespace reldiv::core
